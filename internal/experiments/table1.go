package experiments

import (
	"aquatope/internal/bayesnn"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/pool"
	"aquatope/internal/stats"
	"aquatope/internal/timeseries"
	"aquatope/internal/trace"
)

// Table1Result holds the SMAPE of each prediction model across the
// ensemble (paper: Keep-Alive 24.5, ARIMA 18.6, LSTM 9.5, Aquatope 5.7).
type Table1Result struct {
	SMAPE map[string]float64 // model name -> mean SMAPE (%)
	Order []string
}

// Rows implements Result.
func (r Table1Result) Rows() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Order))
	for _, name := range r.Order {
		rows = append(rows, []string{name, f2(r.SMAPE[name]) + "%"})
	}
	return []string{"Model", "SMAPE"}, rows
}

// Table1 measures one-step-ahead prediction accuracy of the fixed
// keep-alive (naive), ARIMA, vanilla LSTM, and Aquatope hybrid Bayesian
// models over the workload ensemble's demand series. Each ensemble member
// is one replication; a member whose test window is empty contributes
// nothing (nil map).
func Table1(s Scale) Table1Result {
	jobs := make([]runner.Job[map[string]float64], s.Ensemble)
	for i := 0; i < s.Ensemble; i++ {
		i := i
		jobs[i] = runner.Job[map[string]float64]{Cell: "member", Rep: i,
			Run: func(runner.Ctx) (map[string]float64, error) {
				tr := table1Trace(i, s.TraceMin, s.Seed)
				execSec := stats.NewRNG(s.Seed+int64(i)*17).Uniform(4, 8)
				demand := pool.DemandSeries(tr.Arrivals, execSec, s.TraceMin)
				train := demand[:s.TrainMin]
				test := demand[s.TrainMin:]
				if stats.Sum(test) == 0 {
					return nil, nil
				}
				smape := make(map[string]float64)
				// Classic predictors.
				for _, p := range []timeseries.Predictor{
					timeseries.NewNaive(),
					timeseries.NewARIMA(6, 1, 2),
					timeseries.NewHoltWinters(trace.MinutesPerDay / 4),
					timeseries.NewVanillaLSTM(16, 32, s.ModelEpochs, s.Seed+int64(i)),
				} {
					p.Fit(train)
					pred := p.Forecast(test)
					smape[p.Name()] = stats.SMAPE(test, pred)
				}
				// Aquatope hybrid model: one-step-ahead predictive means
				// over the test window, with external features.
				smape["aquatope"] = aquatopeSMAPE(s, tr, demand, i)
				return smape, nil
			}}
	}
	members := runner.MustRun(s.engine("table1"), jobs)

	res := Table1Result{
		SMAPE: make(map[string]float64),
		// The paper's Table 1 compares Keep-Alive, ARIMA, LSTM and the
		// hybrid model; Holt-Winters is included as the classic
		// exponential-smoothing family §4.2 also mentions.
		Order: []string{"keepalive", "arima", "holtwinters", "lstm", "aquatope"},
	}
	counts := make(map[string]int)
	for _, smape := range members { // index order: deterministic float sums
		for _, name := range res.Order {
			if v, ok := smape[name]; ok {
				res.SMAPE[name] += v
				counts[name]++
			}
		}
	}
	for _, name := range res.Order {
		if c := counts[name]; c > 0 {
			res.SMAPE[name] /= float64(c)
		}
	}
	return res
}

// table1Trace generates a dense scaled workload (the regime of the paper's
// §7.2, where traces are scaled so cluster utilization approaches 70% and
// the per-minute active-container series is informative): tens of
// concurrent containers with diurnal seasonality, bursts, and episodes.
func table1Trace(i, traceMin int, seed int64) *trace.Trace {
	rng := stats.NewRNG(seed + int64(i)*59)
	return trace.Synthesize(trace.GenConfig{
		DurationMin:          traceMin,
		MeanRatePerMin:       rng.Uniform(80, 200),
		Diurnal:              rng.Uniform(0.4, 0.8),
		Weekly:               rng.Uniform(0, 0.2),
		CV:                   rng.Uniform(1, 2.5),
		BurstEpisodesPerHour: rng.Uniform(0.3, 1),
		BurstDurationMin:     rng.Uniform(8, 20),
		BurstMultiplier:      rng.Uniform(1.5, 3),
		TriggerType:          rng.Intn(trace.NumTriggerTypes),
		StartMinute:          rng.Intn(trace.MinutesPerWeek),
		Seed:                 rng.Int63(),
	})
}

// aquatopeSMAPE trains the hybrid model on the training prefix and scores
// rolling one-step-ahead deterministic predictions on the test suffix.
func aquatopeSMAPE(s Scale, tr *trace.Trace, demand []float64, i int) float64 {
	cfg := bayesnn.DefaultConfig(1+trace.FeatureDim, trace.FeatureDim)
	cfg.EncoderHidden = 24
	cfg.DecoderHidden = 8
	cfg.EncoderLayers = 1
	cfg.PredHidden = []int{24, 12}
	cfg.EncoderEpochs = s.ModelEpochs
	cfg.PredEpochs = s.ModelEpochs * 3
	cfg.MCSamples = 15
	cfg.LR = 0.005
	cfg.Seed = s.Seed + int64(i)
	m := bayesnn.New(cfg)

	const window = 24
	featFn := func(idx int) []float64 { return tr.Features(idx) }
	samples := bayesnn.BuildSamples(demand[:s.TrainMin], window, cfg.Horizon, featFn, featFn)
	m.Train(samples)

	var preds, actual []float64
	for idx := s.TrainMin; idx < len(demand); idx++ {
		hist := make([][]float64, window)
		for t := 0; t < window; t++ {
			j := idx - window + t
			hist[t] = append([]float64{demand[j]}, featFn(j)...)
		}
		p := m.Predict(hist, featFn(idx)).Mean
		if p < 0 {
			p = 0
		}
		preds = append(preds, p)
		actual = append(actual, demand[idx])
	}
	return stats.SMAPE(actual, preds)
}
