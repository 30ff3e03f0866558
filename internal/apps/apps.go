// Package apps defines the five multi-stage serverless applications of the
// paper's methodology (§7.1) — the synthetic Chain and Fan-out/Fan-in
// workflows, the ML pipeline, the video processing framework, and the
// DeathStarBench-style social network — as workflow DAGs over calibrated
// per-stage performance models. The databases and object stores the real
// deployments use (MinIO, Memcached, MongoDB) appear here as service-time
// components of each stage's model: the resource manager only ever
// observes end-to-end behaviour, which these models preserve.
package apps

import (
	"fmt"

	"aquatope/internal/faas"
	"aquatope/internal/socialgraph"
	"aquatope/internal/stats"
	"aquatope/internal/workflow"
)

// App bundles everything needed to deploy and drive one application.
type App struct {
	Name string
	DAG  *workflow.DAG
	// Specs lists the functions to register.
	Specs []faas.FunctionSpec
	// Defaults maps function name to its initial resource configuration.
	Defaults map[string]faas.ResourceConfig
	// QoS is the end-to-end latency constraint in seconds (chosen, per
	// §8.2, as the latency before saturation).
	QoS float64
	// InputFn samples a request's input size.
	InputFn func(rng *stats.RNG) float64
	// WidthFn samples per-request stage width overrides (nil = none). The
	// map it returns may be shared between requests and is read-only.
	WidthFn func(rng *stats.RNG) map[string]int
}

// Register deploys the app's functions onto a cluster.
func (a *App) Register(cl *faas.Cluster) error {
	for _, spec := range a.Specs {
		cfg, ok := a.Defaults[spec.Name]
		if !ok {
			return fmt.Errorf("apps: missing default config for %q", spec.Name)
		}
		if err := cl.RegisterFunction(spec, cfg); err != nil {
			return err
		}
	}
	return nil
}

// Input returns an input size (1 when InputFn is nil).
func (a *App) Input(rng *stats.RNG) float64 {
	if a.InputFn == nil {
		return 1
	}
	return a.InputFn(rng)
}

// Widths returns per-request width overrides (nil when WidthFn is nil).
// The map is shared by every request that draws the same widths: read it,
// never write it.
func (a *App) Widths(rng *stats.RNG) map[string]int {
	if a.WidthFn == nil {
		return nil
	}
	return a.WidthFn(rng)
}

// FunctionNames returns the app's function names in registration order.
func (a *App) FunctionNames() []string {
	out := make([]string, len(a.Specs))
	for i, s := range a.Specs {
		out[i] = s.Name
	}
	return out
}

func defaultCfg() faas.ResourceConfig {
	return faas.ResourceConfig{CPU: 1, MemoryMB: 512}
}

// synth builds a SyntheticModel with the given profile.
func synth(baseExec, cpuShare, kneeMB, coldInit, coldPenalty float64) *faas.SyntheticModel {
	return &faas.SyntheticModel{
		BaseExecSec:     baseExec,
		CPUShare:        cpuShare,
		MemKneeMB:       kneeMB,
		ColdInitSec:     coldInit,
		ColdExecPenalty: coldPenalty,
		InputExponent:   1,
		JitterStd:       0.05,
	}
}

// NewChain builds the synthetic Chain workflow with n stages of
// heterogeneous CPU/memory profiles (§7.1 "a sequence of functions executes
// in a specific order").
func NewChain(n int) *App {
	if n < 1 {
		n = 1
	}
	var specs []faas.FunctionSpec
	defaults := make(map[string]faas.ResourceConfig)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("chain-f%d", i)
		names[i] = name
		// Alternate CPU-bound and memory-bound stages.
		var m *faas.SyntheticModel
		if i%2 == 0 {
			m = synth(0.35, 0.85, 192, 1.2, 1.6)
		} else {
			m = synth(0.25, 0.4, 640, 1.8, 2.0)
		}
		specs = append(specs, faas.FunctionSpec{Name: name, Model: m, TriggerType: 0})
		defaults[name] = defaultCfg()
	}
	return &App{
		Name:     fmt.Sprintf("chain%d", n),
		DAG:      workflow.Chain(fmt.Sprintf("chain%d", n), names...),
		Specs:    specs,
		Defaults: defaults,
		QoS:      0.35 * float64(n),
	}
}

// NewFanOutFanIn builds the synthetic Fan-out/Fan-in workflow: a splitter,
// three heterogeneous parallel branches, and an aggregator.
func NewFanOutFanIn() *App {
	specs := []faas.FunctionSpec{
		{Name: "fan-src", Model: synth(0.15, 0.6, 128, 1.0, 1.5)},
		{Name: "fan-b0", Model: synth(0.5, 0.9, 192, 1.2, 1.6)},
		{Name: "fan-b1", Model: synth(0.4, 0.5, 512, 1.5, 1.8)},
		{Name: "fan-b2", Model: synth(0.3, 0.7, 320, 1.1, 1.6)},
		{Name: "fan-sink", Model: synth(0.2, 0.6, 160, 1.0, 1.5)},
	}
	defaults := make(map[string]faas.ResourceConfig)
	for _, s := range specs {
		defaults[s.Name] = defaultCfg()
	}
	return &App{
		Name:     "fanout",
		DAG:      workflow.FanOutFanIn("fanout", "fan-src", []string{"fan-b0", "fan-b1", "fan-b2"}, "fan-sink"),
		Specs:    specs,
		Defaults: defaults,
		QoS:      1.1,
	}
}

// NewMLPipeline builds the parking-lot security ML pipeline of Fig. 6:
// image upload triggers image processing and object detection, whose
// labeled output feeds vehicle and human recognition in parallel. Model
// loading dominates cold starts (large ColdInit and penalty); inference is
// CPU-heavy with high memory knees (resident models).
func NewMLPipeline() *App {
	// Stage profiles are deliberately heterogeneous (§2.2 "diverse
	// resource requirements"): image processing is I/O-bound with a tiny
	// footprint, object detection dominates CPU and memory, the two
	// recognizers sit in between. A uniform allocation must over-provision
	// three stages to satisfy the fourth.
	specs := []faas.FunctionSpec{
		{Name: "ml-imgproc", Model: synth(0.25, 0.35, 128, 1.2, 1.6), TriggerType: 1},
		{Name: "ml-objdetect", Model: synth(1.6, 0.95, 1536, 4.0, 2.5), TriggerType: 1},
		{Name: "ml-vehicle", Model: synth(0.7, 0.85, 512, 3.0, 2.2), TriggerType: 1},
		{Name: "ml-human", Model: synth(0.8, 0.6, 896, 3.2, 2.2), TriggerType: 1},
	}
	stages := []workflow.Stage{
		{Name: "imgproc", Function: "ml-imgproc"},
		{Name: "objdetect", Function: "ml-objdetect", Deps: []string{"imgproc"}},
		{Name: "vehicle", Function: "ml-vehicle", Deps: []string{"objdetect"}},
		{Name: "human", Function: "ml-human", Deps: []string{"objdetect"}},
	}
	d, err := workflow.NewDAG("mlpipeline", stages)
	if err != nil {
		panic(err)
	}
	defaults := make(map[string]faas.ResourceConfig)
	for _, s := range specs {
		defaults[s.Name] = faas.ResourceConfig{CPU: 1, MemoryMB: 1024}
	}
	return &App{
		Name:     "mlpipeline",
		DAG:      d,
		Specs:    specs,
		Defaults: defaults,
		QoS:      4.2,
		InputFn: func(rng *stats.RNG) float64 {
			// Camera frames vary mildly in complexity.
			return rng.LogNormal(0, 0.2)
		},
	}
}

// NewVideoProcessing builds the Sprocket-style video framework of Fig. 7:
// fetch/decode, scene-change detection, then per-chunk face recognition,
// box drawing and watermarking in parallel, and a final encode. MinIO
// ephemeral storage shows up as I/O-bound (low CPU share) stage time.
func NewVideoProcessing() *App {
	specs := []faas.FunctionSpec{
		{Name: "vid-decode", Model: synth(0.8, 0.6, 512, 2.0, 1.8), TriggerType: 1},
		{Name: "vid-scene", Model: synth(0.3, 0.8, 256, 1.2, 1.6), TriggerType: 1},
		{Name: "vid-face", Model: synth(0.9, 0.9, 896, 3.5, 2.4), TriggerType: 1},
		{Name: "vid-drawbox", Model: synth(0.25, 0.7, 256, 1.0, 1.5), TriggerType: 1},
		{Name: "vid-watermark", Model: synth(0.2, 0.5, 192, 1.0, 1.5), TriggerType: 1},
		{Name: "vid-encode", Model: synth(1.0, 0.85, 512, 1.8, 1.7), TriggerType: 1},
	}
	stages := []workflow.Stage{
		{Name: "decode", Function: "vid-decode"},
		{Name: "scene", Function: "vid-scene", Deps: []string{"decode"}},
		{Name: "face", Function: "vid-face", Deps: []string{"scene"}, Width: 4, InputScale: 0.25},
		{Name: "drawbox", Function: "vid-drawbox", Deps: []string{"face"}, Width: 4, InputScale: 0.25},
		{Name: "watermark", Function: "vid-watermark", Deps: []string{"drawbox"}, Width: 4, InputScale: 0.25},
		{Name: "encode", Function: "vid-encode", Deps: []string{"watermark"}},
	}
	d, err := workflow.NewDAG("videoproc", stages)
	if err != nil {
		panic(err)
	}
	defaults := make(map[string]faas.ResourceConfig)
	for _, s := range specs {
		defaults[s.Name] = faas.ResourceConfig{CPU: 1, MemoryMB: 768}
	}
	// One read-only override map per chunk count, built once.
	chunks := make([]map[string]int, 9)
	for w := 2; w < len(chunks); w++ {
		chunks[w] = map[string]int{"face": w, "drawbox": w, "watermark": w}
	}
	return &App{
		Name:     "videoproc",
		DAG:      d,
		Specs:    specs,
		Defaults: defaults,
		QoS:      4.2,
		InputFn: func(rng *stats.RNG) float64 {
			// Video length in relative units.
			return rng.LogNormal(0, 0.3)
		},
		WidthFn: func(rng *stats.RNG) map[string]int {
			// Chunk count varies with video length (2..8).
			return chunks[2+rng.Intn(7)]
		},
	}
}

// NewSocialNetwork builds the serverless DeathStarBench social network of
// Fig. 8 driven by a socfb-Reed98-scale graph: compose-post fans into text
// and media filters, unique-id/user-mention resolution, post storage, and
// a home-timeline broadcast whose width follows the author's follower
// count. Memcached/Redis/MongoDB round trips are folded into stage service
// times (I/O-bound, low CPU share).
func NewSocialNetwork(graph *socialgraph.Graph) *App {
	if graph == nil {
		graph = socialgraph.Reed98Like(42) //aqualint:allow seedflow nil means the caller wants the documented default topology; one fixed seed keeps it identical everywhere
	}
	specs := []faas.FunctionSpec{
		{Name: "sn-compose", Model: synth(0.12, 0.5, 128, 0.8, 1.5), TriggerType: 0},
		{Name: "sn-textfilter", Model: synth(0.3, 0.85, 384, 2.2, 2.0), TriggerType: 0},
		{Name: "sn-mediafilter", Model: synth(0.5, 0.9, 640, 2.8, 2.2), TriggerType: 0},
		{Name: "sn-uniqueid", Model: synth(0.05, 0.3, 64, 0.5, 1.3), TriggerType: 0},
		{Name: "sn-usermention", Model: synth(0.15, 0.4, 128, 0.8, 1.5), TriggerType: 0},
		{Name: "sn-poststore", Model: synth(0.2, 0.3, 256, 1.0, 1.6), TriggerType: 0},
		{Name: "sn-hometimeline", Model: synth(0.08, 0.35, 128, 0.7, 1.4), TriggerType: 0},
	}
	stages := []workflow.Stage{
		{Name: "compose", Function: "sn-compose"},
		{Name: "textfilter", Function: "sn-textfilter", Deps: []string{"compose"}},
		{Name: "mediafilter", Function: "sn-mediafilter", Deps: []string{"compose"}},
		{Name: "uniqueid", Function: "sn-uniqueid", Deps: []string{"compose"}},
		{Name: "usermention", Function: "sn-usermention", Deps: []string{"textfilter"}},
		{Name: "poststore", Function: "sn-poststore", Deps: []string{"textfilter", "mediafilter", "uniqueid", "usermention"}},
		{Name: "hometimeline", Function: "sn-hometimeline", Deps: []string{"poststore"}},
	}
	d, err := workflow.NewDAG("socialnet", stages)
	if err != nil {
		panic(err)
	}
	defaults := make(map[string]faas.ResourceConfig)
	for _, s := range specs {
		defaults[s.Name] = faas.ResourceConfig{CPU: 0.5, MemoryMB: 384}
	}
	// One read-only override map per shard count a user can need, built
	// once.
	shards := make([]map[string]int, graph.MaxDegree()/32+2)
	for w := 1; w < len(shards); w++ {
		shards[w] = map[string]int{"hometimeline": w}
	}
	return &App{
		Name:     "socialnet",
		DAG:      d,
		Specs:    specs,
		Defaults: defaults,
		QoS:      1.4,
		InputFn: func(rng *stats.RNG) float64 {
			return rng.LogNormal(0, 0.25)
		},
		WidthFn: func(rng *stats.RNG) map[string]int {
			// Broadcast shards: one home-timeline update per 32 followers.
			user := graph.SampleUser(rng)
			return shards[graph.Followers(user)/32+1]
		},
	}
}

// All returns the five evaluation applications (chain uses 3 stages as the
// paper's default).
func All(graphSeed int64) []*App {
	return []*App{
		NewChain(3),
		NewFanOutFanIn(),
		NewMLPipeline(),
		NewVideoProcessing(),
		NewSocialNetwork(socialgraph.Reed98Like(graphSeed)),
	}
}
