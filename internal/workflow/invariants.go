package workflow

import "fmt"

// CheckFree reports the first execution on the free list that is not
// quiescent: one listed twice, one unfinished or with a frame still on the
// stack, one with an attempt outstanding (a hedge loser or a scheduled
// retry) or a hedge timer armed, or one whose PerStage map was not cleared.
// It is the oracle tests step the engine against; nothing on a run's path
// calls it.
//
//aqualint:allow unreached test oracle: workflow property, resilience and overload tests check the free list through it after every event
func (e *Executor) CheckFree() error {
	seen := make(map[*execution]bool, len(e.free))
	for _, x := range e.free {
		if seen[x] {
			return fmt.Errorf("workflow: execution on the free list twice")
		}
		seen[x] = true
		if !x.finished || x.depth != 0 {
			return fmt.Errorf("workflow: free execution of %q is still running", x.d.Name)
		}
		for i := range x.calls[:x.nextCall] {
			c := &x.calls[i]
			if c.outstanding != 0 {
				return fmt.Errorf("workflow: free execution of %q has %d attempts outstanding", x.d.Name, c.outstanding)
			}
			if c.hedgeEv != nil {
				return fmt.Errorf("workflow: free execution of %q has a hedge timer armed", x.d.Name)
			}
		}
		if len(x.perStage) != 0 {
			return fmt.Errorf("workflow: free execution of %q kept its PerStage map", x.d.Name)
		}
	}
	return nil
}
