package sched

import (
	"aquatope/internal/pool"
	"aquatope/internal/resource"
)

// The frameworks the paper evaluates against (§7.4, §8.3). Their managers
// predate the explain-record contract: the pool halves are audited through
// pool.Manager's pool.decision points like every policy, the configuration
// halves emit nothing.
func init() {
	Register("autoscale",
		"reactive baseline: feedback pool scaling (up fast near capacity, down slowly on low utilization) + a resource manager that scales every function up together on a QoS miss and down on slack",
		func(o Options) Scheduler {
			return &scheduler{
				name: "autoscale",
				desc: Describe("autoscale"),
				pool: &policyPool{name: "autoscale", meter: o.Meter, build: func() pool.Policy { return &pool.Autoscale{} }},
				conf: &managerConf{name: "autoscale", meter: o.Meter, build: func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
					return resource.NewAutoscale(space, prof, qos, seed)
				}},
			}
		})
	Register("icebreaker+clite",
		"best prior combination: IceBreaker's Fourier-forecast pre-warming + CLITE's penalized-score Bayesian optimization",
		func(o Options) Scheduler {
			return &scheduler{
				name: "icebreaker+clite",
				desc: Describe("icebreaker+clite"),
				pool: &policyPool{name: "icebreaker", meter: o.Meter, build: func() pool.Policy { return &pool.IceBreaker{} }},
				conf: &managerConf{name: "clite", meter: o.Meter, build: func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
					return resource.NewCLITE(space, prof, qos, seed)
				}},
			}
		})
	Register("keepalive",
		"provider default: fixed 10-minute keep-alive pools, every application at its default configuration",
		func(o Options) Scheduler {
			return &scheduler{
				name: "keepalive",
				desc: Describe("keepalive"),
				pool: keepAlivePool("keepalive", o.Meter),
			}
		})
}
