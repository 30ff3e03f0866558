package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// fixtureStream synthesizes the arrival stream every test run replays.
func fixtureStream(t *testing.T, minutes int, seed int64) []Record {
	t.Helper()
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:    minutes,
		MeanRatePerMin: 5,
		Diurnal:        0.5,
		CV:             1.5,
		Seed:           seed,
	})
	recs := make([]Record, 0, len(tr.Arrivals))
	for _, at := range tr.Arrivals {
		recs = append(recs, Record{T: at, App: "chain2"})
	}
	if len(recs) < 10 {
		t.Fatalf("fixture trace too thin: %d arrivals", len(recs))
	}
	return recs
}

func sourceOf(t *testing.T, recs []Record) *Source {
	t.Helper()
	var buf bytes.Buffer
	arr := make([]float64, len(recs))
	for i, r := range recs {
		arr[i] = r.T
	}
	if err := WriteStream(&buf, "chain2", arr); err != nil {
		t.Fatal(err)
	}
	return NewSource(bytes.NewReader(buf.Bytes()))
}

// fixtureOpts builds the chaos+overload-armed serving configuration: the
// kill-restore scenario (demand surge + invoker loss + controller kill),
// bounded queues, the resilience layer, the pool guard, and the hybrid
// Bayesian pool policy at test scale.
func fixtureOpts(t *testing.T, dir string, armCrash bool) Options {
	t.Helper()
	const minutes = 20
	app := apps.NewChain(2)
	scn, ok := chaos.Builtin("kill-restore", float64(minutes)*60, 7)
	if !ok {
		t.Fatal("kill-restore scenario missing")
	}
	pol := workflow.DefaultRetryPolicy()
	pol.Timeout = app.QoS
	return Options{
		Apps:          []*apps.App{app},
		TrainMin:      5,
		HorizonMin:    minutes,
		Scheduler:     testBrain(t, nil),
		SearchBudget:  3,
		ProfileNoise:  faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3},
		RuntimeNoise:  faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3},
		ClusterCfg:    faas.Config{Invokers: 4, QueueLimit: 8},
		Chaos:         scn,
		ArmCrash:      armCrash,
		Resilience:    &pol,
		PoolGuard:     true,
		Tracer:        telemetry.NewCollector(),
		Registry:      telemetry.NewRegistry(),
		CheckpointDir: dir,
		Seed:          7,
	}
}

// testBrain is the aquatope scheduler at test scale, metered when m is
// non-nil.
func testBrain(t *testing.T, m *sched.Meter) sched.Scheduler {
	t.Helper()
	s, ok := sched.New("aquatope", sched.Options{
		Meter:         m,
		EncoderHidden: 10,
		PredHidden:    []int{10, 6},
		EncoderEpochs: 4,
		PredEpochs:    10,
		MCSamples:     6,
		Window:        20,
		HeadroomZ:     2,
	})
	if !ok {
		t.Fatal("scheduler aquatope not registered")
	}
	return s
}

// dumps renders the run's trace and metrics exactly as the CLI would.
func dumps(t *testing.T, o Options) (spans, metrics []byte) {
	t.Helper()
	var sb, mb bytes.Buffer
	if err := o.Tracer.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if err := o.Registry.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes(), mb.Bytes()
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreEqualsUninterrupted is the tentpole acceptance test: under
// the kill-restore chaos script (surge + invoker loss + controller kill),
// a run killed mid-surge and restored from any boundary checkpoint must
// produce byte-identical span and metric dumps to an uninterrupted
// reference run.
func TestRestoreEqualsUninterrupted(t *testing.T) {
	recs := fixtureStream(t, 20, 7)

	// Uninterrupted reference: crash fault fires inert (hook not armed).
	refOpts := fixtureOpts(t, t.TempDir(), false)
	ref, err := New(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(sourceOf(t, recs)); err != nil {
		t.Fatal(err)
	}
	wantSpans, wantMetrics := dumps(t, refOpts)
	if len(wantSpans) == 0 || len(wantMetrics) == 0 {
		t.Fatal("reference dumps empty")
	}

	// Killed run: the armed KindCrash fault unwinds the loop mid-surge.
	crashDir := t.TempDir()
	crashOpts := fixtureOpts(t, crashDir, true)
	crashed, err := New(crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.Run(sourceOf(t, recs)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", err)
	}
	lastK := crashed.Boundary()
	if lastK < 5 {
		t.Fatalf("crash came too early for a meaningful test: only %d boundaries", lastK)
	}
	if _, err := os.Stat(filepath.Join(crashDir, checkpointName(lastK))); err != nil {
		t.Fatalf("last boundary checkpoint missing: %v", err)
	}

	// Restore from three distinct boundaries — early, mid, and the last
	// checkpoint before the kill — and run each to completion. Every
	// resume works on a private copy of the crash state so the journals
	// do not cross-contaminate.
	for _, k := range []int{2, lastK / 2, lastK} {
		k := k
		t.Run(fmt.Sprintf("boundary-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashDir, dir)
			opts := fixtureOpts(t, dir, false)
			s, err := Restore(opts, filepath.Join(dir, checkpointName(k)))
			if err != nil {
				t.Fatalf("restore from boundary %d: %v", k, err)
			}
			src, err := s.ResumeSource(streamReader(t, recs))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(src); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			gotSpans, gotMetrics := dumps(t, opts)
			if !bytes.Equal(gotSpans, wantSpans) {
				t.Errorf("span dump diverged from uninterrupted run (%d vs %d bytes)",
					len(gotSpans), len(wantSpans))
			}
			if !bytes.Equal(gotMetrics, wantMetrics) {
				t.Errorf("metric dump diverged from uninterrupted run (%d vs %d bytes)",
					len(gotMetrics), len(wantMetrics))
			}
		})
	}
}

func streamReader(t *testing.T, recs []Record) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	arr := make([]float64, len(recs))
	for i, r := range recs {
		arr[i] = r.T
	}
	if err := WriteStream(&buf, "chain2", arr); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestRestoreRejectsDigestMismatch: a checkpoint only restores against the
// exact options of the run that cut it.
func TestRestoreRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := fixtureOpts(t, dir, true)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := fixtureStream(t, 20, 7)
	if err := s.Run(sourceOf(t, recs)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	wrong := fixtureOpts(t, dir, false)
	wrong.Seed = 8
	if _, err := Restore(wrong, filepath.Join(dir, checkpointName(2))); err == nil {
		t.Fatal("digest mismatch accepted")
	}
}

// TestRestoreRejectsTamperedCheckpoint: a section is a digest, and it is
// all that stands between a forked history and a "verified" restore. A
// checkpoint that is well formed (every CRC recomputed) but carries one
// flipped byte in any section's digest must fail verification naming the
// section; a file of an older format must be refused by version before any
// replay.
func TestRestoreRejectsTamperedCheckpoint(t *testing.T) {
	crashDir := t.TempDir()
	crashed, err := New(fixtureOpts(t, crashDir, true))
	if err != nil {
		t.Fatal(err)
	}
	recs := fixtureStream(t, 20, 7)
	if err := crashed.Run(sourceOf(t, recs)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	name := checkpointName(crashed.Boundary())

	// restore copies the crash state, lets edit rewrite the checkpoint's
	// bytes, and restores from the result.
	restore := func(t *testing.T, edit func(path string)) error {
		dir := t.TempDir()
		copyDir(t, crashDir, dir)
		path := filepath.Join(dir, name)
		edit(path)
		_, err := Restore(fixtureOpts(t, dir, false), path)
		return err
	}

	if err := restore(t, func(string) {}); err != nil {
		t.Fatalf("untouched checkpoint: %v", err)
	}
	// Every section that is written is a section that is verified: flip the
	// first byte of each stored digest in turn and re-encode the file, so
	// every CRC is valid again. The error names the section and shows both
	// digests' prefixes.
	sections := []string{
		"chaos.injector", "faas.cluster", "loadgen.rng.chain2", "pool.manager",
		"serve.stats.chain2", "sim.engine", "telemetry.registry", "telemetry.spans",
		"workflow.executor",
	}
	f, err := checkpoint.ReadFile(filepath.Join(crashDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var stored []string
	for _, sec := range f.Sections {
		stored = append(stored, sec.Name)
		if len(sec.Data) != sha256.Size {
			t.Errorf("section %s holds %d bytes, want a %d-byte digest", sec.Name, len(sec.Data), sha256.Size)
		}
	}
	if !reflect.DeepEqual(stored, sections) {
		t.Fatalf("boundary file holds sections %v, the table forges %v", stored, sections)
	}
	for _, section := range sections {
		t.Run("section/"+section, func(t *testing.T) {
			var replayed, forged []byte
			err := restore(t, func(path string) {
				f, err := checkpoint.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data, _ := f.Section(section)
				replayed = append(replayed, data...)
				data[0] ^= 0x01
				forged = data
				if err := checkpoint.WriteFile(path, f); err != nil {
					t.Fatal(err)
				}
			})
			want := fmt.Sprintf("section %q diverged after replay (replayed sha256 %.6x..; checkpoint %.6x..)", section, replayed, forged)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("got %v, want %s", err, want)
			}
		})
	}
	for _, version := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("version-%d", version), func(t *testing.T) {
			err := restore(t, func(path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[4:], version)
				binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			})
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("version-%d checkpoint: got %v, want ErrCorrupt", version, err)
			}
			for _, want := range []string{fmt.Sprintf("version %d", version), "supported: 3"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if strings.Contains(err.Error(), "diverged") {
				t.Errorf("version skew reported as a divergence: %v", err)
			}
		})
	}
}

// TestRestoreRejectsForgedHeader: a checkpoint file comes from outside the
// program, so a header that is well formed and CRC-valid but holds values
// no run writes must be refused with an error, never a panic. Each row
// rewrites one field of a real boundary checkpoint's header. Negative counts
// are refused as the header is decoded and a wrong digest before replay.
// The seed is covered by the digest, so a wrong one with the right digest is
// forged and refused at once, and so is a journal offset that ends inside a
// record even when its prefix hash is recomputed to match. A boundary index
// the replay cannot reach before the horizon is refused when replay stops
// there, without running on; the clock, the last arrival time and the
// record count when replay reaches the checkpointed boundary and the
// server's own values disagree. Every forged value is ErrCorrupt and named.
func TestRestoreRejectsForgedHeader(t *testing.T) {
	keepalive, ok := sched.New("keepalive", sched.Options{})
	if !ok {
		t.Fatal("scheduler keepalive not registered")
	}
	runDir := t.TempDir()
	opts := Options{Apps: []*apps.App{apps.NewChain(2)}, TrainMin: 1, HorizonMin: 10, Scheduler: keepalive, CheckpointDir: runDir, Seed: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(sourceOf(t, fixtureStream(t, 10, 7))); err != nil {
		t.Fatal(err)
	}
	name := checkpointName(3)
	journal, err := os.ReadFile(filepath.Join(runDir, "stream.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		forge   func(h *header)
		want    string
		corrupt bool
	}{
		{name: "untouched", forge: func(*header) {}},
		{name: "short-digest", forge: func(h *header) { h.Digest = "" }, want: "config digest mismatch"},
		{name: "negative-journal-offset", forge: func(h *header) { h.JournalOff = -5 }, want: "journal offset -5", corrupt: true},
		{name: "negative-boundary", forge: func(h *header) { h.K = -1 }, want: "boundary -1", corrupt: true},
		{name: "negative-ingested", forge: func(h *header) { h.Ingested = -1 }, want: "record count -1", corrupt: true},
		{name: "forged-now", forge: func(h *header) { h.Now++ }, want: "header Now", corrupt: true},
		{name: "forged-last-arrival", forge: func(h *header) { h.LastT = math.Nextafter(h.LastT, 0) }, want: "header LastT", corrupt: true},
		{name: "forged-ingested", forge: func(h *header) { h.Ingested-- }, want: "header Ingested", corrupt: true},
		{name: "forged-seed", forge: func(h *header) { h.Seed++ }, want: "header Seed", corrupt: true},
		{name: "far-boundary", forge: func(h *header) { h.K = 1 << 40 }, want: "header K 1099511627776", corrupt: true},
		{name: "journal-offset-inside-record", forge: func(h *header) {
			h.JournalOff += 3
			sum := sha256.Sum256(journal[:h.JournalOff])
			h.JournalSHA = sum[:]
		}, want: "header JournalOff", corrupt: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, runDir, dir)
			path := filepath.Join(dir, name)
			f, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h, err := decodeHeader(f.Header)
			if err != nil {
				t.Fatal(err)
			}
			if h.Ingested == 0 || h.LastT == 0 {
				t.Fatalf("boundary 3 holds %d records up to t=%v: the forged rows need some", h.Ingested, h.LastT)
			}
			tc.forge(&h)
			enc := checkpoint.NewEncoder()
			h.encode(enc)
			f.Header = enc.Bytes()
			if err := checkpoint.WriteFile(path, f); err != nil {
				t.Fatal(err)
			}
			o := opts
			o.CheckpointDir = dir
			_, err = Restore(o, path)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("untouched header: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			if errors.Is(err, checkpoint.ErrCorrupt) != tc.corrupt {
				t.Errorf("errors.Is(err, ErrCorrupt) = %v, want %v: %v", !tc.corrupt, tc.corrupt, err)
			}
		})
	}
}

// TestPoolSectionIgnoresMeter: attaching a sched.Meter wraps every pool
// policy, and the wrapper must not hide the policy's state (BNN weights,
// window offset) from the pool.manager fingerprint. The same run served
// with and without a meter writes equal pool.manager digests at every
// boundary.
func TestPoolSectionIgnoresMeter(t *testing.T) {
	recs := fixtureStream(t, 20, 7)
	serveInto := func(m *sched.Meter) string {
		dir := t.TempDir()
		opts := fixtureOpts(t, dir, false)
		opts.Scheduler = testBrain(t, m)
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(sourceOf(t, recs)); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	meter := &sched.Meter{}
	plain, metered := serveInto(nil), serveInto(meter)
	if meter.PoolDecisions == 0 {
		t.Fatal("the meter saw no pool decision: the metered run did not wrap its policies")
	}
	for k := 1; k <= 20; k++ {
		section := func(dir string) []byte {
			f, err := checkpoint.ReadFile(filepath.Join(dir, checkpointName(k)))
			if err != nil {
				t.Fatal(err)
			}
			data, ok := f.Section("pool.manager")
			if !ok {
				t.Fatalf("boundary %d: no pool.manager section", k)
			}
			return data
		}
		if a, b := section(plain), section(metered); !bytes.Equal(a, b) {
			t.Fatalf("boundary %d: pool.manager digest is %.6x.. unmetered, %.6x.. metered", k, a, b)
		}
	}
}

// TestRestoreRejectsChangedAdmission: an option the old digest left out. A
// checkpoint cut under reject-new admission and restored under
// deadline-aware admission must be refused up front as the configuration
// mismatch it is, not later as some section that diverged in replay.
func TestRestoreRejectsChangedAdmission(t *testing.T) {
	dir := t.TempDir()
	s, err := New(fixtureOpts(t, dir, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(sourceOf(t, fixtureStream(t, 20, 7))); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	changed := fixtureOpts(t, dir, false)
	changed.ClusterCfg.Admission = faas.AdmitDeadlineAware
	_, err = Restore(changed, filepath.Join(dir, checkpointName(2)))
	if err == nil {
		t.Fatal("restore under a different admission policy accepted")
	}
	if !strings.Contains(err.Error(), "config digest mismatch") || strings.Contains(err.Error(), "section") {
		t.Fatalf("want a digest mismatch, got: %v", err)
	}
}

// TestBatchEqualsServe keeps the two feeders on one controller: core.Run
// over per-app traces and a server (checkpointing off) over the same
// arrivals merged into one time-ordered stream must produce byte-identical
// span dumps, metric dumps and equal Results — with two applications, the
// kill-restore script left inert, resilience, the pool guard and a BNN+BO
// brain all in play.
func TestBatchEqualsServe(t *testing.T) {
	const minutes = 20
	appList := []*apps.App{apps.NewChain(2), apps.NewFanOutFanIn()}
	var comps []core.Component
	var recs []Record
	for i, a := range appList {
		tr := trace.Synthesize(trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 4, Diurnal: 0.5, CV: 1.5, Seed: int64(21 + i)})
		comps = append(comps, core.Component{App: a, Trace: tr})
		for _, at := range tr.Arrivals {
			recs = append(recs, Record{T: at, App: a.Name})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	var stream bytes.Buffer
	for _, r := range recs {
		line, err := r.MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(append(line, '\n'))
	}

	opts := fixtureOpts(t, "", false)
	opts.Apps = appList
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(NewSource(&stream)); err != nil {
		t.Fatal(err)
	}
	servedSpans, servedMetrics := dumps(t, opts)

	batch := fixtureOpts(t, "", false)
	res, err := core.Run(core.Config{
		Components:   comps,
		TrainMin:     batch.TrainMin,
		Scheduler:    batch.Scheduler,
		SearchBudget: batch.SearchBudget,
		ProfileNoise: batch.ProfileNoise,
		RuntimeNoise: batch.RuntimeNoise,
		ClusterCfg:   batch.ClusterCfg,
		Chaos:        batch.Chaos,
		Resilience:   batch.Resilience,
		PoolGuard:    batch.PoolGuard,
		Tracer:       batch.Tracer,
		Registry:     batch.Registry,
		Seed:         batch.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	batchSpans, batchMetrics := dumps(t, batch)

	if res.Workflows() == 0 || len(batchSpans) == 0 {
		t.Fatal("batch run did nothing")
	}
	if !bytes.Equal(batchSpans, servedSpans) {
		t.Errorf("span dumps differ: batch %d B, served %d B", len(batchSpans), len(servedSpans))
	}
	if !bytes.Equal(batchMetrics, servedMetrics) {
		t.Errorf("metric dumps differ: batch %d B, served %d B", len(batchMetrics), len(servedMetrics))
	}
	if got := s.Result(); !reflect.DeepEqual(res, got) {
		t.Errorf("results differ:\nbatch  %+v\nserved %+v", res, got)
	}
}

// TestIngestRejectsBadRecords drives malformed streams through Server.Run:
// each record is validated on its own before it is ordered against the
// last one, so a negative time is reported as invalid wherever it occurs.
func TestIngestRejectsBadRecords(t *testing.T) {
	keepalive, ok := sched.New("keepalive", sched.Options{})
	if !ok {
		t.Fatal("scheduler keepalive not registered")
	}
	for _, tc := range []struct {
		name, stream, want string
	}{
		{"unknown-app", `{"t":1,"app":"nope"}`, `record 0 targets unknown app "nope"`},
		{"back-in-time", `{"t":5,"app":"chain2"}` + "\n" + `{"t":3,"app":"chain2"}`, "record 1 goes back in time (3 after 5)"},
		{"negative-first", `{"t":-1,"app":"chain2"}`, "record 0 has invalid time -1"},
		{"negative-later", `{"t":1,"app":"chain2"}` + "\n" + `{"t":-1,"app":"chain2"}`, "record 1 has invalid time -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Options{Apps: []*apps.App{apps.NewChain(2)}, TrainMin: 1, HorizonMin: 5, Scheduler: keepalive, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Run(NewSource(strings.NewReader(tc.stream + "\n")))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
