package faas

import "fmt"

// CheckIndexes recomputes, by the scans they replace, everything the cluster
// maintains incrementally — each invoker's idle-container count, the queued
// total, and fnList against fnOrder and fns — and reports the first
// mismatch. It is the oracle tests step the engine against; nothing on a
// run's path calls it.
//
//aqualint:allow unreached test oracle: faas and workflow property tests recompute every maintained index through it
func (c *Cluster) CheckIndexes() error {
	if len(c.fnList) != len(c.fnOrder) {
		return fmt.Errorf("faas: fnList has %d functions, fnOrder %d", len(c.fnList), len(c.fnOrder))
	}
	queued := 0
	for i, name := range c.fnOrder {
		if c.fnList[i] != c.fns[name] {
			return fmt.Errorf("faas: fnList[%d] is not function %q", i, name)
		}
		queued += len(c.fnList[i].queue)
	}
	if queued != c.queued {
		return fmt.Errorf("faas: queued total %d, queues hold %d", c.queued, queued)
	}
	for _, iv := range c.invokers {
		idle := 0
		for ct := range iv.containers {
			if ct.state == stateIdle {
				idle++
			}
		}
		if idle != iv.idleN {
			return fmt.Errorf("faas: invoker %d idle count %d, %d containers idle", iv.ID, iv.idleN, idle)
		}
	}
	return nil
}
