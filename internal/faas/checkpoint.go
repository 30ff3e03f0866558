package faas

import (
	"aquatope/internal/checkpoint"
	"aquatope/internal/stats"
)

// Snapshot serializes the cluster's observable state as a verification
// digest: RNG positions, per-function container/queue/EWMA state, breaker
// windows, invoker occupancy and utilization integrals, and active fault
// rates. Queue entries and containers carry completion closures and armed
// timers that cannot be serialized, so the cluster is a replay-derived
// component — restore rebuilds it by re-running the input stream and this
// digest is what proves the rebuilt cluster identical (every scalar that
// influences future scheduling decisions is captured; divergence anywhere
// shows up here first). All iteration is in deterministic order: functions
// by registration order, containers sorted by id, invokers by index.
func (c *Cluster) Snapshot(enc *checkpoint.Encoder) {
	enc.String("faas.cluster")
	c.rng.Snapshot(enc)
	if c.faultRNG == nil {
		stats.SnapshotFresh(enc, c.faultSeed())
	} else {
		c.faultRNG.Snapshot(enc)
	}
	enc.F64(c.faults.InitFailure)
	enc.F64(c.faults.ExecKill)
	enc.Bool(c.draining)

	enc.U64(uint64(len(c.fnList)))
	for _, f := range c.fnList {
		enc.String(f.spec.Name)
		enc.F64(f.keepAlive)
		enc.Int(f.prewarmTarget)
		enc.Int(f.busyN)
		enc.Int(f.inFlight)
		enc.Int(f.queueLimit)
		enc.F64(f.execEWMA)
		enc.Int(f.nextContainerID)
		enc.F64(f.cfg.CPU)
		enc.F64(f.cfg.MemoryMB)
		enc.Int(f.cfg.Concurrency)
		snapshotContainers(enc, f.idle)
		snapshotContainers(enc, f.warming)
		enc.U64(uint64(len(f.queue)))
		for _, pi := range f.queue {
			enc.F64(pi.inputSize)
			enc.F64(pi.submitAt)
			enc.U64(uint64(pi.span))
			enc.Int(pi.attempt)
			enc.F64(pi.timeout)
			enc.Bool(pi.settled)
		}
	}

	enc.U64(uint64(len(c.invokers)))
	for _, iv := range c.invokers {
		enc.Int(iv.ID)
		enc.F64(iv.memUsedMB)
		enc.F64(iv.cpuBusy)
		enc.Bool(iv.down)
		enc.F64(iv.straggle)
		enc.F64(iv.util.lastAt)
		enc.F64(iv.util.busyS)
		enc.F64(iv.util.activeS)
		enc.F64(iv.util.cpuCoreS)
		enc.F64(iv.util.memMBs)
		enc.F64(iv.util.warmSpareS)
		enc.Int(iv.util.created)
		enc.Int(iv.util.killed)
		if iv.breaker == nil {
			enc.Bool(false)
		} else {
			enc.Bool(true)
			b := iv.breaker
			enc.Int(int(b.state))
			enc.Bools(b.ring[:])
			enc.Int(b.next)
			enc.Int(b.n)
			enc.Int(b.errs)
			enc.F64(b.openedAt)
			enc.Int(b.probeOK)
		}
		// Resident containers, sorted by (function, id) for a
		// deterministic digest of an unordered set.
		cts := c.residents(iv)
		enc.U64(uint64(len(cts)))
		for _, ct := range cts {
			enc.String(ct.fn.spec.Name)
			snapshotContainer(enc, ct)
		}
	}
}

func snapshotContainers(enc *checkpoint.Encoder, cts []*container) {
	enc.U64(uint64(len(cts)))
	for _, ct := range cts {
		snapshotContainer(enc, ct)
	}
}

func snapshotContainer(enc *checkpoint.Encoder, ct *container) {
	enc.Int(ct.id)
	enc.Int(int(ct.state))
	enc.F64(ct.born)
	enc.F64(ct.warmAt)
	enc.F64(ct.lastUsed)
	enc.Bool(ct.everUsed)
	enc.Bool(ct.prewarmed)
	enc.Bool(ct.initFailed)
	enc.Bool(ct.faultKilled)
	enc.Bool(ct.running != nil)
}
