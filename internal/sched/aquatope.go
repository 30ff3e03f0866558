package sched

import (
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/trace"
)

func init() {
	Register("aquatope",
		"hybrid Bayesian-LSTM pool sizing with uncertainty headroom + customized-BO container tuning (the paper's brain)",
		func(o Options) Scheduler {
			o.Lite = false
			return &scheduler{
				name: "aquatope",
				desc: Describe("aquatope"),
				pool: &bnnPool{name: "aquatope", opts: o},
				conf: &managerConf{name: "aquatope", meter: o.Meter, build: func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
					return resource.NewAquatope(space, prof, qos, seed)
				}},
			}
		})
	Register("aqualite",
		"uncertainty-unaware ablation of aquatope: same BNN/BO machinery without headroom or anomaly pruning",
		func(o Options) Scheduler {
			o.Lite = true
			return &scheduler{
				name: "aqualite",
				desc: Describe("aqualite"),
				pool: &bnnPool{name: "aqualite", opts: o},
				conf: &managerConf{name: "aqualite", meter: o.Meter, build: func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
					return resource.NewAquaLite(space, prof, qos, seed)
				}},
			}
		})
}

func intOr(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func floatOr(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// bnnPool builds the paper's hybrid-BNN pool policy per function. The
// zero-value Options reproduce cmd/aquatope's model shape exactly (the
// byte-identity bar for the default scheduler).
type bnnPool struct {
	name string
	opts Options
}

func (p *bnnPool) Name() string { return p.name }

// Policy implements PoolSizer.
func (p *bnnPool) Policy(string) pool.Policy {
	o := p.opts
	cfg := pool.DefaultModelConfig(trace.FeatureDim)
	cfg.EncoderHidden = intOr(o.EncoderHidden, 20)
	cfg.PredHidden = o.PredHidden
	if len(cfg.PredHidden) == 0 {
		cfg.PredHidden = []int{20, 10}
	}
	cfg.EncoderEpochs = intOr(o.EncoderEpochs, 8)
	cfg.PredEpochs = intOr(o.PredEpochs, 24)
	cfg.MCSamples = intOr(o.MCSamples, 12)
	cfg.LR = floatOr(o.LR, 0.01)
	pol := &pool.Aquatope{
		ModelConfig:     cfg,
		Window:          intOr(o.Window, 40),
		HeadroomZ:       floatOr(o.HeadroomZ, 2.5),
		MaxTrainSamples: o.MaxTrainSamples,
		Lite:            o.Lite,
	}
	return meterPolicy(pol, o.Meter)
}
