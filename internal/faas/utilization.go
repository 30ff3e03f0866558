package faas

import (
	"strconv"

	"aquatope/internal/telemetry"
)

// invokerUtil accumulates Fifer-style utilization time integrals for one
// invoker. Each field integrates an instantaneous occupancy quantity over
// simulated time; accrueUtil advances the integrals to "now" and must run
// immediately before any mutation of the quantities it integrates, so every
// segment is weighted by the state that actually held over it.
type invokerUtil struct {
	// lastAt is the simulation time the integrals were last advanced to.
	lastAt float64
	// busyS is wall time with at least one invocation executing.
	busyS float64
	// activeS is wall time with at least one container provisioned
	// (the denominator for bin-packing efficiency: memory capacity only
	// counts as wasted while the invoker was powering containers at all).
	activeS float64
	// cpuCoreS is ∫ busy-core-count dt (core-seconds of execution demand).
	cpuCoreS float64
	// memMBs is ∫ provisioned-container-memory dt (MB-seconds).
	memMBs float64
	// warmSpareS is ∫ idle-warm-container-count dt: capacity held ready
	// but unused — the quantity the pre-warm pool trades against cold
	// starts.
	warmSpareS float64
	// created/killed count container churn on this invoker.
	created int
	killed  int
}

// accrueUtil integrates an invoker's current occupancy up to the present
// simulation time. Callers mutating cpuBusy, memUsedMB or a resident
// container's state invoke it first.
func (c *Cluster) accrueUtil(iv *Invoker) {
	now := c.eng.Now()
	u := &iv.util
	dt := now - u.lastAt
	if dt > 0 {
		if iv.cpuBusy > 0 {
			u.busyS += dt
		}
		if len(iv.containers) > 0 {
			u.activeS += dt
		}
		u.cpuCoreS += iv.cpuBusy * dt
		u.memMBs += iv.memUsedMB * dt
		u.warmSpareS += float64(iv.idleN) * dt
	}
	u.lastAt = now
}

// flushUtilization advances every invoker's integrals to now and publishes
// them as registry gauges (per-invoker names suffixed ".<id>"), plus the
// fleet-level bin-packing efficiency and CPU utilization gauges. Gauges are
// idempotent under Set, so flushing twice — or merging parallel replication
// registries — is safe.
func (c *Cluster) flushUtilization(now float64) {
	reg := c.metrics.Registry()
	var memMBs, capMBs, coreS, capCoreS float64
	for _, iv := range c.invokers {
		c.accrueUtil(iv)
		u := iv.util
		id := strconv.Itoa(iv.ID)
		reg.Gauge(telemetry.MetricInvokerBusyS + "." + id).Set(u.busyS)
		reg.Gauge(telemetry.MetricInvokerIdleS + "." + id).Set(u.activeS - u.busyS)
		reg.Gauge(telemetry.MetricInvokerActiveS + "." + id).Set(u.activeS)
		reg.Gauge(telemetry.MetricInvokerCPUCoreS + "." + id).Set(u.cpuCoreS)
		reg.Gauge(telemetry.MetricInvokerMemGBs + "." + id).Set(u.memMBs / 1024)
		reg.Gauge(telemetry.MetricInvokerWarmSpareS + "." + id).Set(u.warmSpareS)
		reg.Gauge(telemetry.MetricInvokerCreated + "." + id).Set(float64(u.created))
		reg.Gauge(telemetry.MetricInvokerKilled + "." + id).Set(float64(u.killed))
		memMBs += u.memMBs
		capMBs += iv.MemoryCapacityMB * u.activeS
		coreS += u.cpuCoreS
		capCoreS += iv.CPUCapacity * now
	}
	binpack := 0.0
	if capMBs > 0 {
		binpack = memMBs / capMBs
	}
	cpuUtil := 0.0
	if capCoreS > 0 {
		cpuUtil = coreS / capCoreS
	}
	reg.Gauge(telemetry.MetricBinPackEfficiency).Set(binpack)
	reg.Gauge(telemetry.MetricFleetCPUUtil).Set(cpuUtil)
}

// OpenBreakers returns how many invokers currently hold an open circuit
// breaker (0 when breakers are disabled). Pool decisions record it as part
// of their audit context: an open breaker shrinks the schedulable fleet, so
// the same demand forecast can produce different placements.
func (c *Cluster) OpenBreakers() int {
	n := 0
	for _, iv := range c.invokers {
		if iv.breaker != nil && iv.breaker.state == breakerOpen {
			n++
		}
	}
	return n
}
