package serve

import (
	"reflect"
	"strings"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/workflow"
)

// digestExcluded lists every option the digest leaves out, and why a restore
// under a different value still replays the same trajectory.
var digestExcluded = map[string]string{
	"Pace":                "wall-clock throttle; virtual time never reads it",
	"ArmCrash":            "the crash fault fires either way; only whether the process survives it differs, and Restore forces it off",
	"CheckpointDir":       "where the bytes land, not what they are",
	"Registry":            "which registry collects, not what it collects",
	"ClusterCfg.Noise":    "overwritten by RuntimeNoise",
	"ClusterCfg.Registry": "overwritten by Registry",
}

// digestPerturb changes the options a generic walk cannot: each entry makes
// one trajectory-shaping edit to the field it is keyed by. The walker
// requires an entry (or an exclusion) for every such field.
var digestPerturb = map[string][]func(*Options){
	"Apps": {
		func(o *Options) { o.Apps = append(o.Apps, apps.NewFanOutFanIn()) },
		func(o *Options) { a := *o.Apps[0]; a.Name += "x"; o.Apps = []*apps.App{&a} },
		func(o *Options) { a := *o.Apps[0]; a.QoS += 0.5; o.Apps = []*apps.App{&a} },
		// Same name and QoS, different functions.
		func(o *Options) {
			a := *apps.NewChain(3)
			a.Name, a.QoS = o.Apps[0].Name, o.Apps[0].QoS
			o.Apps = []*apps.App{&a}
		},
	},
	"Scheduler": {
		func(o *Options) { o.Scheduler = nil },
		func(o *Options) { o.Scheduler, _ = sched.New("aqualite", sched.Options{}) },
		// Same name, a half swapped out.
		func(o *Options) { o.Scheduler = halfOf{o.Scheduler} },
	},
	"Chosen": {
		func(o *Options) { o.Chosen = nil },
		func(o *Options) {
			o.Chosen = map[string]map[string]faas.ResourceConfig{"chain2": {"chain2-f0": {CPU: 2, MemoryMB: 512}}}
		},
		func(o *Options) {
			o.Chosen = map[string]map[string]faas.ResourceConfig{"chain2": {"chain2-f0": {CPU: 1, MemoryMB: 256}}}
		},
	},
	"Tracer": {
		// Tracing on or off changes what the checkpoint holds; which
		// collector does the tracing does not.
		func(o *Options) { o.Tracer = nil },
	},
}

// halfOf keeps a scheduler's name and pool half and drops its configurator.
type halfOf struct{ sched.Scheduler }

func (halfOf) Configurator() sched.Configurator { return nil }

// digestBase sets every option away from its zero value, so that each
// perturbation below is a change between two meaningful configurations.
func digestBase(t *testing.T) Options {
	t.Helper()
	scn, ok := chaos.Builtin("kill-restore", 1200, 7)
	if !ok {
		t.Fatal("kill-restore scenario missing")
	}
	scn.Faults = append(scn.Faults, chaos.Fault{
		Kind: chaos.KindFaultRates, At: 1, Duration: 2, Invoker: 1, Factor: 2, Rate: 3,
		Rates: faas.FaultRates{InitFailure: 0.1, ExecKill: 0.2},
	})
	// The walker perturbs element 0.
	last := len(scn.Faults) - 1
	scn.Faults[0], scn.Faults[last] = scn.Faults[last], scn.Faults[0]
	brain, ok := sched.New("aquatope", sched.Options{})
	if !ok {
		t.Fatal("scheduler aquatope not registered")
	}
	noise := faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3}
	return Options{
		Apps:              []*apps.App{apps.NewChain(2)},
		TrainMin:          5,
		HorizonMin:        20,
		Scheduler:         brain,
		SearchBudget:      3,
		ProfileNoise:      noise,
		RuntimeNoise:      noise,
		ColdStartFraction: 0.25,
		ClusterCfg: faas.Config{
			Invokers: 4, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, DefaultKeepAlive: 300,
			Noise: noise, QueueLimit: 8, Admission: faas.AdmitDeadlineAware,
			Breaker:  faas.BreakerConfig{Enabled: true},
			Registry: telemetry.NewRegistry(), Seed: 9,
		},
		Chosen:   map[string]map[string]faas.ResourceConfig{"chain2": {"chain2-f0": {CPU: 1, MemoryMB: 512}}},
		Chaos:    scn,
		ArmCrash: true,
		Resilience: &workflow.RetryPolicy{
			MaxAttempts: 3, Timeout: 10, HedgeDelay: 5, RetryBudget: 2, RetryBudgetPerSec: 0.05, HedgeQueueLimit: 2,
		},
		PoolGuard:     true,
		Tracer:        telemetry.NewCollector(),
		Registry:      telemetry.NewRegistry(),
		CheckpointDir: "ck",
		Pace:          1,
		Seed:          7,
	}
}

// TestDigestCoversEveryOption walks serve.Options — and the faas.Config,
// workflow.RetryPolicy, chaos.Fault and noise structs beneath
// it — by reflection, changes one field at a time and requires a different
// digest, unless the field is on digestExcluded with its reason. A field
// added later fails here until someone decides which side it is on.
func TestDigestCoversEveryOption(t *testing.T) {
	base := digestBase(t)
	want := base.Digest()
	if again := digestBase(t).Digest(); again != want {
		t.Fatalf("two identical option sets digest differently: %s vs %s", want[:12], again[:12])
	}
	// check applies one edit to a fresh copy of the base options.
	check := func(path string, edit func(*Options)) {
		t.Helper()
		o := digestBase(t)
		edit(&o)
		why, excluded := digestExcluded[path]
		switch changed := o.Digest() != want; {
		case excluded && changed:
			t.Errorf("%s is excluded (%s) but moves the digest", path, why)
		case !excluded && !changed:
			t.Errorf("changing %s leaves the digest unchanged: fold it into Options.Digest or add it to digestExcluded with the reason", path)
		}
	}

	// walk visits every field under v; at addresses the same value inside
	// another Options.
	seen := make(map[string]bool)
	var walk func(path string, v reflect.Value, at func(*Options) reflect.Value)
	walk = func(path string, v reflect.Value, at func(*Options) reflect.Value) {
		seen[path] = true
		if edits, ok := digestPerturb[path]; ok {
			for _, edit := range edits {
				check(path, edit)
			}
			return
		}
		if _, excluded := digestExcluded[path]; excluded {
			// Where the walker can, prove the exclusion; elsewhere it
			// stands on its reason.
			if canPerturb(v) {
				check(path, func(o *Options) { perturb(at(o)) })
			}
			return
		}
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				i := i
				walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i),
					func(o *Options) reflect.Value { return at(o).Field(i) })
			}
		case v.Kind() == reflect.Pointer && v.Type().Elem().Kind() == reflect.Struct:
			check(path, func(o *Options) { at(o).Set(reflect.Zero(v.Type())) })
			walk(path, v.Elem(), func(o *Options) reflect.Value { return at(o).Elem() })
		case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Struct:
			check(path, func(o *Options) { f := at(o); f.Set(f.Slice(0, f.Len()-1)) })
			walk(path+"[0]", v.Index(0), func(o *Options) reflect.Value { return at(o).Index(0) })
		case canPerturb(v):
			check(path, func(o *Options) { perturb(at(o)) })
		default:
			t.Errorf("%s (%s): the walker cannot perturb this kind: add a digestPerturb entry or an exclusion", path, v.Type())
		}
	}
	walk("", reflect.ValueOf(base), func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem() })

	for path := range digestExcluded {
		if !seen[path] {
			t.Errorf("digestExcluded names %s, which the walk never reached", path)
		}
	}
	for path := range digestPerturb {
		if !seen[path] {
			t.Errorf("digestPerturb names %s, which the walk never reached", path)
		}
	}
}

func canPerturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64, reflect.String:
		return true
	}
	return false
}

func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	}
}
