package faas

import "fmt"

// CheckIndexes recomputes, by the scans they replace, everything the cluster
// maintains incrementally — each invoker's idle-container count, the queued
// total, and fnList against fns — and reports the first
// mismatch. It also checks the free list of invocation records: each free
// record is listed once, and none is in a queue, running in a container or
// reserved on a warming one; and the spare containers: each is listed once,
// and none is resident on an invoker or in a function's idle or warming
// list. It is the oracle tests step the engine against; nothing on a run's
// path calls it.
//
//aqualint:allow unreached test oracle: faas and workflow property tests recompute every maintained index through it
func (c *Cluster) CheckIndexes() error {
	if len(c.fnList) != len(c.fns) {
		return fmt.Errorf("faas: fnList has %d functions, fns %d", len(c.fnList), len(c.fns))
	}
	free := make(map[*pendingInvocation]bool, len(c.free))
	for _, p := range c.free {
		if free[p] {
			return fmt.Errorf("faas: invocation record on the free list twice")
		}
		if !p.settled {
			return fmt.Errorf("faas: free invocation record was never delivered")
		}
		if p.warming {
			return fmt.Errorf("faas: free invocation record is reserved on a warming container")
		}
		free[p] = true
	}
	spare := make(map[*container]bool, len(c.spare))
	for _, ct := range c.spare {
		if spare[ct] {
			return fmt.Errorf("faas: container on the spare list twice")
		}
		spare[ct] = true
	}
	queued := 0
	for i, fn := range c.fnList {
		name := fn.spec.Name
		if c.fns[name] != fn {
			return fmt.Errorf("faas: fnList[%d] is not function %q", i, name)
		}
		for _, p := range fn.queue {
			if free[p] {
				return fmt.Errorf("faas: free invocation record queued for %q", name)
			}
		}
		queued += len(fn.queue)
		for _, ct := range fn.idle {
			if spare[ct] {
				return fmt.Errorf("faas: spare container %d idle for %q", ct.id, name)
			}
		}
		for _, ct := range fn.warming {
			if spare[ct] {
				return fmt.Errorf("faas: spare container %d warming for %q", ct.id, name)
			}
		}
	}
	if queued != c.queued {
		return fmt.Errorf("faas: queued total %d, queues hold %d", c.queued, queued)
	}
	for _, iv := range c.invokers {
		idle := 0
		for ct := range iv.containers {
			if spare[ct] {
				return fmt.Errorf("faas: spare container %d resident on invoker %d", ct.id, iv.ID)
			}
			if ct.state == stateIdle {
				idle++
			}
			if ct.running != nil && free[ct.running] {
				return fmt.Errorf("faas: free invocation record running on invoker %d", iv.ID)
			}
		}
		if idle != iv.idleN {
			return fmt.Errorf("faas: invoker %d idle count %d, %d containers idle", iv.ID, iv.idleN, idle)
		}
	}
	return nil
}
