package obs

import (
	"fmt"
	"sort"

	"aquatope/internal/telemetry"
)

// DecisionRecord is one reconstructed control-plane decision: a pool-sizing
// tick, a BO suggestion or observe round, a guard mode switch, or a circuit
// breaker transition — with a human-readable "why" built from the explain
// fields the emitting subsystem recorded.
type DecisionRecord struct {
	Time   float64          `json:"t_s"`
	Kind   string           `json:"kind"`
	Name   string           `json:"name,omitempty"`
	Why    string           `json:"why"`
	Fields telemetry.Fields `json:"fields,omitempty"`
}

// PoolFnStats aggregates pool decisions for one function.
type PoolFnStats struct {
	Function  string  `json:"function"`
	Decisions int     `json:"decisions"`
	Degraded  int     `json:"degraded"`
	Rewarms   int     `json:"rewarms"`
	MeanPred  float64 `json:"mean_predicted"`
	MeanHead  float64 `json:"mean_headroom"`
	MeanTgt   float64 `json:"mean_target"`
	MaxTgt    int     `json:"max_target"`
}

// DecisionSummary rolls the audit log up for the summary report.
type DecisionSummary struct {
	PoolDecisions int `json:"pool_decisions"`
	Degraded      int `json:"degraded_decisions"`
	Rewarms       int `json:"rewarms"`
	ModeSwitches  int `json:"mode_switches"`
	BOSuggests    int `json:"bo_suggests"`
	BOBootstraps  int `json:"bo_bootstraps"`
	BOIterations  int `json:"bo_iterations"`
	BreakerEvents int `json:"breaker_events"`
	// SchedDecisions counts sched.decision explain records — configuration
	// decisions by non-BO schedulers from the internal/sched arena.
	SchedDecisions int           `json:"sched_decisions,omitempty"`
	PerFunction    []PoolFnStats `json:"per_function,omitempty"`
}

// buildAudit reconstructs the decision audit log from a span stream. Spans
// arrive in creation order, which for points equals time order, so the log
// is chronological by construction.
func buildAudit(spans []telemetry.Span) ([]DecisionRecord, DecisionSummary) {
	var log []DecisionRecord
	var sum DecisionSummary
	perFn := make(map[string]*PoolFnStats)
	var fnOrder []string
	fnStats := func(name string) *PoolFnStats {
		s, ok := perFn[name]
		if !ok {
			s = &PoolFnStats{Function: name}
			perFn[name] = s
			fnOrder = append(fnOrder, name)
		}
		return s
	}
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.KindPoolDecision:
			rec := DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Fields: sp.Fields}
			s := fnStats(sp.Name)
			switch sp.Fields["why"] {
			case 2: // rewarm (also tagged rewarm:1)
				sum.Rewarms++
				s.Rewarms++
				rec.Why = fmt.Sprintf("re-warm to target %.0f after invoker %.0f crash",
					sp.Fields["target"], sp.Fields["invoker"])
			case 1:
				sum.PoolDecisions++
				sum.Degraded++
				s.Decisions++
				s.Degraded++
				s.MeanPred += sp.Fields["predicted"]
				s.MeanHead += sp.Fields["headroom"]
				s.MeanTgt += sp.Fields["target"]
				if t := int(sp.Fields["target"]); t > s.MaxTgt {
					s.MaxTgt = t
				}
				rec.Why = fmt.Sprintf("degraded: recent-peak fallback → target %.0f (model said %.1f±%.1f; demand %.0f, sheds %.0f, open breakers %.0f)",
					sp.Fields["target"], sp.Fields["predicted"], sp.Fields["headroom"],
					sp.Fields["demand"], sp.Fields["sheds_interval"], sp.Fields["open_breakers"])
			default:
				sum.PoolDecisions++
				s.Decisions++
				s.MeanPred += sp.Fields["predicted"]
				s.MeanHead += sp.Fields["headroom"]
				s.MeanTgt += sp.Fields["target"]
				if t := int(sp.Fields["target"]); t > s.MaxTgt {
					s.MaxTgt = t
				}
				rec.Why = fmt.Sprintf("model: forecast %.1f + headroom %.1f → target %.0f (actual peak %.0f; warm %.0f idle/%.0f warming/%.0f busy)",
					sp.Fields["predicted"], sp.Fields["headroom"], sp.Fields["target"],
					sp.Fields["actual"], sp.Fields["idle"], sp.Fields["warming"], sp.Fields["busy"])
			}
			log = append(log, rec)
		case telemetry.KindPoolMode:
			sum.ModeSwitches++
			why := fmt.Sprintf("recovered to model-driven sizing (sheds %.0f)", sp.Fields["sheds"])
			if sp.Fields["mode"] == 1 {
				// Trigger 2 is the guard's removed uncertainty trip wire;
				// dumps written by older binaries still carry it.
				trigger := "model uncertainty above calibration bound"
				if sp.Fields["trigger"] == 1 {
					trigger = fmt.Sprintf("admission shed %.0f invocations in one interval", sp.Fields["sheds"])
				}
				why = "entered degraded mode: " + trigger
			}
			log = append(log, DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Why: why, Fields: sp.Fields})
		case telemetry.KindBODecision:
			sum.BOSuggests++
			var why string
			if sp.Fields["bootstrap"] == 1 {
				sum.BOBootstraps++
				why = fmt.Sprintf("bootstrap: %.0f quasi-random configs (%.0f observations so far)",
					sp.Fields["batch"], sp.Fields["observations"])
			} else {
				why = fmt.Sprintf("model: batch of %.0f from %.0f candidates, acquisition %.4g; pick 0 posterior cost %.3g±%.3g, latency %.3g±%.3g vs QoS %.3g (feasibility %.2f)",
					sp.Fields["batch"], sp.Fields["candidates"], sp.Fields["acquisition"],
					sp.Fields["cost_mean"], sp.Fields["cost_sd"],
					sp.Fields["lat_mean"], sp.Fields["lat_sd"],
					sp.Fields["qos"], sp.Fields["feasibility"])
			}
			log = append(log, DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Why: why, Fields: sp.Fields})
		case telemetry.KindBOIteration:
			sum.BOIterations++
			why := fmt.Sprintf("observed batch: %.0f total observations, %.0f pruned as anomalies",
				sp.Fields["observations"], sp.Fields["pruned"])
			if inc, ok := sp.Fields["incumbent_cost"]; ok {
				why += fmt.Sprintf("; incumbent cost %.4g at latency %.3g", inc, sp.Fields["incumbent_latency"])
			}
			log = append(log, DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Why: why, Fields: sp.Fields})
		case telemetry.KindSchedDecision:
			sum.SchedDecisions++
			var why string
			switch {
			case sp.Fields["peak"] == 1:
				why = fmt.Sprintf("peak provisioning: max CPU/memory everywhere, cost %.4g at latency %.3g vs QoS %.3g",
					sp.Fields["cost"], sp.Fields["lat"], sp.Fields["qos"])
			case sp.Name == "jolteon":
				verdict := "frozen"
				if sp.Fields["accepted"] == 1 {
					verdict = "accepted"
				}
				tried := "anchor (all-max vCPUs)"
				if sp.Fields["fn"] >= 0 {
					tried = fmt.Sprintf("step-down of fn %.0f", sp.Fields["fn"])
				}
				why = fmt.Sprintf("%s: %s — P(1-%.2f) latency bound %.3g vs QoS %.3g (mean %.3g±%.3g over %.0f samples), cost %.4g; %.0f fns frozen",
					verdict, tried, sp.Fields["risk"], sp.Fields["bound"], sp.Fields["qos"],
					sp.Fields["lat_mean"], sp.Fields["lat_sd"], sp.Fields["samples"],
					sp.Fields["cost"], sp.Fields["frozen"])
			default:
				verdict := fmt.Sprintf("infeasible, frontier %.0f deep", sp.Fields["frontier"])
				if sp.Fields["satisfied"] == 1 {
					verdict = "satisfied — best-fit found"
				}
				why = fmt.Sprintf("BFS best-fit probe at %.0f memory grains: latency %.3g vs QoS %.3g, cost %.4g (%s)",
					sp.Fields["mem_levels"], sp.Fields["lat"], sp.Fields["qos"], sp.Fields["cost"], verdict)
			}
			log = append(log, DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Why: why, Fields: sp.Fields})
		case telemetry.KindBreaker:
			sum.BreakerEvents++
			state := "closed"
			switch sp.Fields["state"] {
			case 1:
				state = "open"
			case 2:
				state = "half-open"
			}
			why := fmt.Sprintf("invoker %.0f breaker → %s (error rate %.2f)",
				sp.Fields["invoker"], state, sp.Fields["err_rate"])
			log = append(log, DecisionRecord{Time: sp.Start, Kind: sp.Kind, Name: sp.Name, Why: why, Fields: sp.Fields})
		}
	}
	sort.Strings(fnOrder)
	for _, name := range fnOrder {
		s := perFn[name]
		if s.Decisions > 0 {
			s.MeanPred /= float64(s.Decisions)
			s.MeanHead /= float64(s.Decisions)
			s.MeanTgt /= float64(s.Decisions)
		}
		sum.PerFunction = append(sum.PerFunction, *s)
	}
	return log, sum
}
