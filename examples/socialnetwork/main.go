// Social network example: the DeathStarBench-style broadcast service of
// the paper's Fig. 8 over a socfb-Reed98-scale follower graph. Post
// broadcasts fan out to each author's followers, so stage widths — and
// resource needs — vary request to request; the example shows the graph's
// heavy tail flowing through to workflow cost and latency.
//
// Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"sort"

	"aquatope/internal/apps"
	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/socialgraph"
	"aquatope/internal/stats"
	"aquatope/internal/workflow"
)

func main() {
	g := socialgraph.Reed98Like(42) //aqualint:allow seedflow example pins the documented Reed98-like topology seed
	fmt.Printf("social graph: %d users, %d follow edges (mean %.1f, max %d)\n",
		g.NumUsers(), g.NumEdges(), g.MeanDegree(), g.MaxDegree())

	app := apps.NewSocialNetwork(g)
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Seed: 1})
	if err := app.Register(cl); err != nil {
		panic(err)
	}
	// Give every stage a sound configuration (the defaults deliberately
	// sit below some stages' memory knees — that is what the resource
	// manager exists to fix) and pre-warm generously: this example
	// isolates the fan-out effect.
	for _, fn := range app.FunctionNames() {
		_ = cl.SetResourceConfig(fn, faas.ResourceConfig{CPU: 2, MemoryMB: 1024})
		_ = cl.SetPrewarmTarget(fn, 40)
	}
	eng.RunUntil(60)

	ex := workflow.NewExecutor(cl)
	rng := stats.NewRNG(7) //aqualint:allow seedflow example pins its documented demo seed so the printed numbers match the README

	type post struct {
		width int
		lat   float64
		cost  float64
	}
	var posts []post
	for i := 0; i < 200; i++ {
		widths := app.Widths(rng)
		input := app.Input(rng)
		// The Result is valid only inside the callback, so record it there.
		if err := ex.Execute(app.DAG, input, widths, func(r workflow.Result) {
			posts = append(posts, post{widths["hometimeline"], r.Latency(), r.Cost(1, 1)})
		}); err != nil {
			panic(err)
		}
		eng.Run()
	}

	sort.Slice(posts, func(i, j int) bool { return posts[i].width < posts[j].width })
	fmt.Println("\nper-post cost/latency by broadcast width (timeline shards):")
	buckets := map[int][]post{}
	for _, p := range posts {
		buckets[p.width] = append(buckets[p.width], p)
	}
	var widths []int
	for w := range buckets {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	for _, w := range widths {
		var lat, cost float64
		for _, p := range buckets[w] {
			lat += p.lat
			cost += p.cost
		}
		n := float64(len(buckets[w]))
		fmt.Printf("  width %2d  (%3d posts)  mean latency %.2fs  mean cost %.2f\n",
			w, len(buckets[w]), lat/n, cost/n)
	}

	var lats []float64
	for _, p := range posts {
		lats = append(lats, p.lat)
	}
	fmt.Printf("\nlatency p50=%.2fs p95=%.2fs p99=%.2fs (QoS %.1fs)\n",
		stats.Percentile(lats, 50), stats.Percentile(lats, 95), stats.Percentile(lats, 99), app.QoS)
	fmt.Println("\nhub users' posts fan out to hundreds of followers, inflating both")
	fmt.Println("tail latency and cost — the variability the paper's uncertainty-")
	fmt.Println("aware models are built to absorb.")
}
