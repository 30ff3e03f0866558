// Fixtures for the onevalue analyzer: fields of exported untagged structs
// that the program writes with at most one constant value.
package main

func main() {
	a := RunConfig{Workers: 2, Label: "a", Limit: 10}
	b := RunConfig{Workers: 4, Label: "a"}
	b.Ratio = 0
	b.Scale = float64(a.Workers)
	a.Count++
	l := &Log{}
	l.Add("x")
	run(a, b, Options{Burst: 6, Jitter: 1}, Options{Jitter: 2}, RetryPolicy{Max: 3}, Settings{Fixed: 1},
		Wire{ID: 1}, NewPool(PoolConfig{}), NewPool(PoolConfig{Name: "p"}))
}

func run(...any) {}

type RunConfig struct {
	Workers int     // ok: 2 and 4
	Label   string  // want onevalue
	Limit   int     // ok: 10 and the zero value an omitting literal writes
	Ratio   float64 // want onevalue
	Scale   float64 // ok: assigned a non-constant
	Count   int     // ok: incremented
	Unset   bool    // want onevalue
}

// Options defaults Burst in its own method: the zero value resolves to 6,
// which the explicit 6 only repeats.
type Options struct {
	Burst int // want onevalue
	//aqualint:allow onevalue a documented knob only the tests vary
	Depth  int
	Jitter int //aqualint:allow onevalue stale: main sets it to 1 and 2, so it suppresses nothing // want directive
}

func (o Options) withDefaults() Options {
	if o.Burst == 0 {
		o.Burst = 6
	}
	return o
}

type RetryPolicy struct{ Max int } // want onevalue

// Settings is checked whatever its name.
type Settings struct{ Fixed int } // want onevalue

// Wire is filled by reflection through its tags, which the check cannot
// see, so it is not checked.
type Wire struct {
	ID int `json:"id"`
}

// PoolConfig's Size is defaulted by NewPool, a function that takes the
// struct: the zero value both literals write resolves to 8.
type PoolConfig struct {
	Size int    // want onevalue
	Name string // ok: "" and "p"
}

type Pool struct{ cfg PoolConfig }

func NewPool(cfg PoolConfig) *Pool {
	if cfg.Size == 0 {
		cfg.Size = 8
	}
	return &Pool{cfg: cfg}
}

// Log's Lines is written only by its own method, with a non-constant, so
// it varies although the one literal writes nil.
type Log struct{ Lines []string }

func (l *Log) Add(s string) { l.Lines = append(l.Lines, s) }
