package stats

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistBucketMonotoneAndTight sweeps the mapping: indexes are monotone
// in the value, every value lands in a bucket whose upper edge is ≥ it,
// and the relative error of the upper edge is within 2^-histSubBits.
func TestHistBucketMonotoneAndTight(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 31, 32, 63, 64, 65, 66, 127, 128, 1000,
		4096, 65535, 1 << 20, 1<<20 + 1, 1 << 30, 1 << 40, 1 << 50} {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("bucket(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		prev = idx
		edge := histValue(idx)
		if edge < v {
			t.Fatalf("bucket(%d) upper edge %d understates the value", v, edge)
		}
		if v >= 64 && float64(edge-v) > float64(v)/float64(1<<histSubBits)*1.01 {
			t.Fatalf("bucket(%d) edge %d: relative error %.3f", v, edge,
				float64(edge-v)/float64(v))
		}
	}
	// Dense continuity sweep across the exact/log boundary.
	for v := uint64(0); v < 10000; v++ {
		a, b := histBucket(v), histBucket(v+1)
		if b < a || b > a+1 {
			t.Fatalf("bucket jumps from %d to %d at v=%d", a, b, v)
		}
		if histValue(a) < v {
			t.Fatalf("edge of bucket(%d) understates", v)
		}
	}
}

// TestHistogramPercentilesVsSorted cross-checks percentiles against the
// exact sorted-slice statistics on a heavy-tailed sample.
func TestHistogramPercentilesVsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var exact []time.Duration
	for i := 0; i < 50000; i++ {
		// Log-uniform between 1µs and 10s: the range one loadgen run spans.
		d := time.Duration(float64(time.Microsecond) *
			pow10(rng.Float64()*7))
		h.Add(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		rank := int(p/100*float64(len(exact))) - 1
		if rank < 0 {
			rank = 0
		}
		want := exact[rank]
		got := h.Percentile(p)
		if got < want {
			t.Fatalf("p%v = %v understates exact %v", p, got, want)
		}
		if float64(got-want) > float64(want)*0.05 {
			t.Fatalf("p%v = %v vs exact %v: error > 5%%", p, got, want)
		}
	}
	if h.N() != len(exact) {
		t.Fatalf("N = %d", h.N())
	}
	if h.Max() != exact[len(exact)-1] {
		t.Fatalf("Max = %v, want %v (exact)", h.Max(), exact[len(exact)-1])
	}
}

func pow10(x float64) float64 {
	v := 1.0
	for x >= 1 {
		v *= 10
		x--
	}
	// linear blend for the fractional digit — close enough for a test load
	return v * (1 + 9*x/1.0*0.3)
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Max() != 0 || h.Mean() != 0 || h.N() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Add(1500 * time.Nanosecond)
	if h.N() != 1 {
		t.Fatalf("N = %d", h.N())
	}
	for _, p := range []float64{0.0001, 1, 50, 99.9, 100} {
		got := h.Percentile(p)
		if got < 1500 || got > 1600 {
			t.Fatalf("p%v = %v for single 1.5µs sample", p, got)
		}
	}
	if h.Mean() != 1500 {
		t.Fatalf("Mean = %v", h.Mean())
	}

	// A 1..100 ms ladder: percentiles land on the nearest-rank sample's
	// bucket (never below it, at most one sub-bucket above), the mean is
	// exact.
	h = NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{{"Median", h.Median(), 50 * time.Millisecond}, {"P90", h.P90(), 90 * time.Millisecond}} {
		if c.got < c.want || c.got > c.want+c.want/32 {
			t.Errorf("%s = %v, want %v within 1/32", c.name, c.got, c.want)
		}
	}
	if mean := h.Mean(); mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v", mean)
	}
}

// TestHistogramConcurrentAdd hammers Add from many goroutines under -race;
// the totals must balance.
func TestHistogramConcurrentAdd(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Add(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Fatalf("N = %d, want %d", h.N(), workers*per)
	}
	// p100 reports its bucket's upper edge; the exact max sits in that
	// bucket, so p100 must cover it without overshooting the bucket error.
	p100 := h.Percentile(100)
	if p100 < h.Max() || float64(p100-h.Max()) > float64(h.Max())*0.05 {
		t.Fatalf("p100 %v vs max %v", p100, h.Max())
	}
}
