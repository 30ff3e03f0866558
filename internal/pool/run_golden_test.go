package pool

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"aquatope/internal/faas"
)

// seriesDigest fingerprints a float series bit for bit.
func seriesDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%x", len(xs), h.Sum(nil)[:8])
}

// TestRunGolden pins Run's whole RunResult, bit for bit, to the values
// recorded while MeanLatency was still summed over the cluster's retained
// result slice. The latency sum now accumulates through Invoke's done
// callback, which fires in the order the slice was appended, so the float
// sum — compared with ==, not a tolerance — is the same sum.
//
// The mean is over every terminal result submitted after the cut.
func TestRunGolden(t *testing.T) {
	golden := []struct {
		seed    int64
		policy  string
		want    RunResult
		mem     string
		demands string
	}{
		{2, "keepalive", RunResult{ColdStarts: 3, WarmStarts: 634, Invocations: 637, ColdRate: 0.004709576138147566, ProvisionedMemGBs: 5453.3151744824845, MeanLatency: 0.4112626371915236}, "91:905afbd1a65ee7ec", "90:6675140269eb0e9e"},
		{2, "histogram", RunResult{ColdStarts: 7, WarmStarts: 630, Invocations: 637, ColdRate: 0.01098901098901099, ProvisionedMemGBs: 4521.725321234177, MeanLatency: 0.42566617640048016}, "91:ad5ee1a582c5b636", "90:40bcee630608c6dc"},
	}
	for _, g := range golden {
		var p Policy = &FixedKeepAlive{}
		if g.policy == "histogram" {
			p = &Histogram{}
		}
		cfg := RunConfig{
			Trace: testTrace(1.5, g.seed), TrainMin: 150, Model: fastModel(),
			Resources: faas.ResourceConfig{CPU: 1, MemoryMB: 512},
			Policy:    p, MemorySeries: true, Seed: g.seed,
		}
		got := Run(cfg)
		mem, demands := seriesDigest(got.MemorySeriesGB), seriesDigest(got.DemandSeries)
		got.MemorySeriesGB, got.DemandSeries = nil, nil
		if got.ColdStarts != g.want.ColdStarts || got.WarmStarts != g.want.WarmStarts ||
			got.Invocations != g.want.Invocations || got.ColdRate != g.want.ColdRate ||
			got.ProvisionedMemGBs != g.want.ProvisionedMemGBs || got.MeanLatency != g.want.MeanLatency {
			t.Errorf("seed %d %s:\n got %#v\nwant %#v", g.seed, g.policy, got, g.want)
		}
		if mem != g.mem || demands != g.demands {
			t.Errorf("seed %d %s: series digests (%s, %s), want (%s, %s)", g.seed, g.policy, mem, demands, g.mem, g.demands)
		}
	}
}
