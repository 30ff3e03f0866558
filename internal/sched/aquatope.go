package sched

import (
	"aquatope/internal/bayesnn"
	"aquatope/internal/pool"
	"aquatope/internal/trace"
)

// aquatopePolicy builds the paper's hybrid-BNN pool policy for one function
// (lite drops its uncertainty headroom: the AquaLite ablation). This is the
// one definition of the live model's shape: bayesnn.DefaultConfig — the
// paper-scale shape Table 1 uses — cut down to minute-scale traces. The
// Options fields a caller set replace their part of it.
func aquatopePolicy(o Options, lite bool) pool.Policy {
	cfg := bayesnn.DefaultConfig(1+trace.FeatureDim, trace.FeatureDim)
	cfg.EncoderHidden, cfg.DecoderHidden, cfg.EncoderLayers = 20, 8, 1
	cfg.PredHidden = []int{20, 10}
	cfg.EncoderEpochs, cfg.PredEpochs, cfg.MCSamples = 8, 24, 12
	cfg.LR = 0.01
	cfg.HeteroscedasticCounts = true
	override(&cfg.EncoderHidden, o.EncoderHidden)
	if len(o.PredHidden) > 0 {
		cfg.PredHidden = o.PredHidden
	}
	override(&cfg.EncoderEpochs, o.EncoderEpochs)
	override(&cfg.PredEpochs, o.PredEpochs)
	override(&cfg.MCSamples, o.MCSamples)

	p := &pool.Aquatope{ModelConfig: cfg, Window: 40, HeadroomZ: 2.5, MaxTrainSamples: o.MaxTrainSamples, Lite: lite}
	override(&p.Window, o.Window)
	override(&p.HeadroomZ, o.HeadroomZ)
	return p
}

// override replaces *dst with v when the caller set v.
func override[T int | float64](dst *T, v T) {
	if v > 0 {
		*dst = v
	}
}
