// Command aqualint machine-checks the repository's determinism and
// simulation-safety invariants and keeps the tree free of dead code and
// one-valued options (DESIGN.md §8). It is a self-contained static
// analyzer over go/ast + go/types with eight checks:
//
//	wallclock   no time.Now/Since/Sleep/timers in simulation-driven code
//	globalrand  no math/rand outside internal/stats (seeded RNGs only)
//	maporder    no order-dependent work inside for-range over a map
//	droppederr  no silently discarded error results in non-test code
//	metricname  metric names and span kinds come from the telemetry catalog
//	seedflow    every RNG constructor seed traces to the run config,
//	            never a literal or the wall clock, across helper layers
//	unreached   every exported identifier, method and field under
//	            internal/ is used by code a main package reaches, and every
//	            internal package is reached at all
//	onevalue    every field of a *Config, *Options or *Policy struct is
//	            written with more than one value by non-test code
//
// unreached and onevalue judge the whole program, so they report only
// when the load includes a main package (./... from the repository root).
//
// Suppress a finding on one line with an explained escape hatch:
//
//	//aqualint:allow <check> <reason>
//
// Usage:
//
//	aqualint [-checks wallclock,maporder] [-json] [packages]
//
// Packages default to ./... relative to the current directory. With
// -json the findings are emitted as a JSON array on stdout (file, line,
// col, check, message) for CI archiving; the human format is the
// default. A timing summary always goes to stderr. Exit code is 0 when
// clean, 1 when findings are reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aquatope/internal/lint"
)

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all of "+strings.Join(lint.AnalyzerNames(), ",")+")")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	cfg := lint.DefaultConfig()
	if *checks != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			if _, ok := cfg.Checks[name]; !ok {
				fmt.Fprintf(os.Stderr, "aqualint: unknown check %q (known: %s)\n", name, strings.Join(lint.AnalyzerNames(), ", "))
				os.Exit(2)
			}
			keep[name] = true
		}
		for name := range cfg.Checks {
			if !keep[name] {
				delete(cfg.Checks, name)
			}
		}
	}

	start := time.Now() //aqualint:allow wallclock the linter reports its own real elapsed time on stderr
	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqualint:", err)
		os.Exit(2)
	}
	loaded := time.Since(start) //aqualint:allow wallclock the linter reports its own real elapsed time on stderr
	findings := lint.Run(pkgs, cfg)
	total := time.Since(start) //aqualint:allow wallclock the linter reports its own real elapsed time on stderr

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd == "" {
			return name
		}
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: rel(f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column,
				Check: f.Check, Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "aqualint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			pos := f.Pos
			pos.Filename = rel(pos.Filename)
			fmt.Printf("%s: [%s] %s\n", pos, f.Check, f.Message)
		}
	}
	fmt.Fprintf(os.Stderr, "aqualint: %d package(s), %d check(s), %d finding(s) in %v (load %v, analysis %v)\n",
		len(pkgs), len(cfg.Checks), len(findings),
		total.Round(time.Millisecond), loaded.Round(time.Millisecond), (total - loaded).Round(time.Millisecond))
	if len(findings) > 0 {
		os.Exit(1)
	}
}
