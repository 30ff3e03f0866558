package faas

import (
	"testing"

	"aquatope/internal/sim"
)

// checkIndexes fails the test when a maintained counter has drifted from
// the scan it replaced.
func checkIndexes(t testing.TB, cl *Cluster) {
	t.Helper()
	if err := cl.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// stepUntil is eng.RunUntil(deadline) with the index oracle run after every
// event. A sentinel event at the deadline ends the stepping; RunUntil then
// finishes whatever else was scheduled for that same instant.
func stepUntil(t testing.TB, eng *sim.Engine, cl *Cluster, deadline float64) {
	t.Helper()
	if deadline >= eng.Now() {
		stop := false
		eng.Schedule(deadline, func() { stop = true })
		for !stop && eng.Step() {
			checkIndexes(t, cl)
		}
	}
	eng.RunUntil(deadline)
	checkIndexes(t, cl)
}

// TestRequeueAtFrontKeepsQueuedTotal drives the one queue mutation the other
// tests never reach: drainQueue pops an invocation because an idle container
// somewhere could be evicted for it, the eviction frees too little, and
// dispatch parks it again at the queue's front.
func TestRequeueAtFrontKeepsQueuedTotal(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 1024, Seed: 1})
	register(t, cl, "long", &testModel{init: 1, exec: 10}, ResourceConfig{CPU: 1, MemoryMB: 512})
	register(t, cl, "short", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 256})
	register(t, cl, "big", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 1024})
	var longEnd, bigEnd float64
	cl.Invoke("long", 1, func(r InvocationResult) { longEnd = r.EndTime })
	cl.Invoke("short", 1, nil)
	cl.Invoke("big", 1, func(r InvocationResult) { bigEnd = r.EndTime }) // queues: no room, nothing idle
	checkIndexes(t, cl)
	// t=2: short goes idle and the drain pass evicts it for big, but long
	// still holds 512 MB, so big goes back to the front of its queue.
	stepUntil(t, eng, cl, 3)
	if idle, _, _ := cl.WarmCount("short"); idle != 0 || cl.QueueDepth("big") != 1 {
		t.Fatalf("at t=3: short idle=%d, big queued=%d; want the eviction spent and big requeued", idle, cl.QueueDepth("big"))
	}
	stepUntil(t, eng, cl, 100)
	if longEnd == 0 || bigEnd <= longEnd {
		t.Fatalf("big finished at %v, long at %v; big needs long's memory", bigEnd, longEnd)
	}
}

// TestCheckIndexesSpareList: the index oracle rejects a spare container
// that is still resident, idle or warming, and one listed twice.
func TestCheckIndexesSpareList(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	if err := cl.SetPrewarmTarget("f", 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	cl.Reset(cl.cfg)
	checkIndexes(t, cl)
	if len(cl.spare) != 2 {
		t.Fatalf("Reset took back %d containers, want the 2 pre-warmed ones", len(cl.spare))
	}
	cl.spare = append(cl.spare, cl.spare[0])
	if cl.CheckIndexes() == nil {
		t.Fatal("a container on the spare list twice passed the index oracle")
	}
	cl.spare = cl.spare[:2]
	if err := cl.SetPrewarmTarget("f", 1); err != nil {
		t.Fatal(err)
	}
	cl.spare = append(cl.spare, cl.fns["f"].warming[0])
	if cl.CheckIndexes() == nil {
		t.Fatal("a warming, resident container on the spare list passed the index oracle")
	}
}
