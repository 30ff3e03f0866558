// Fixtures for the onevalue analyzer: fields of *Config, *Options and
// *Policy structs that the program writes with at most one constant value.
package main

func main() {
	a := RunConfig{Workers: 2, Label: "a", Limit: 10}
	b := RunConfig{Workers: 4, Label: "a"}
	b.Ratio = 0
	b.Scale = float64(a.Workers)
	a.Count++
	run(a, b, Options{Burst: 6}, Options{}, RetryPolicy{Max: 3}, Settings{Fixed: 1})
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
	Depth int
}

func (o Options) withDefaults() Options {
	if o.Burst == 0 {
		o.Burst = 6
	}
	return o
}

type RetryPolicy struct{ Max int } // want onevalue

// Settings is not named as an option struct.
type Settings struct{ Fixed int }
