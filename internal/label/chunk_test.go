package label

import (
	"math/rand"
	"testing"

	"asbestos/internal/handle"
	"asbestos/internal/race"
)

// Multi-chunk coverage. The generators in property_test.go and
// fuzz_test.go use a handful of handles and never build a second chunk;
// the ones here build labels of up to 700 entries over a few thousand
// handles, skewed to ⋆ like the trusted servers' labels, and grown
// through With so that split chunks appear beside New's even ones.

// skewedLevel draws a level, ⋆ about two times in three.
func skewedLevel(r *rand.Rand) Level {
	if r.Intn(3) > 0 {
		return Star
	}
	return Level(r.Intn(int(numLevels)))
}

// genChunked builds a label of 0–700 entries over handles 1–3000.
func genChunked(r *rand.Rand) *Label {
	def := L1
	if r.Intn(2) == 0 {
		def = Level(r.Intn(int(numLevels)))
	}
	n := r.Intn(701)
	// Half the labels start from New (even chunks); all then grow and
	// change through With (split chunks).
	l := Empty(def)
	if r.Intn(2) == 0 {
		seen := make(map[handle.Handle]bool)
		var ents []Entry
		for i := 0; i < n/2; i++ {
			h := handle.Handle(r.Intn(3000) + 1)
			if !seen[h] {
				seen[h] = true
				ents = append(ents, Entry{h, skewedLevel(r)})
			}
		}
		l = New(def, ents...)
	}
	for l.Len() < n {
		l = l.With(handle.Handle(r.Intn(3000)+1), skewedLevel(r))
	}
	return l
}

// genChunkedPair returns two labels that are independent, related (the
// second derived from the first by a few With calls, so the two share
// chunks), or big against small (a grant, taint or port label).
func genChunkedPair(r *rand.Rand) (*Label, *Label) {
	a := genChunked(r)
	switch r.Intn(3) {
	case 0:
		return a, genChunked(r)
	case 1:
		b := a
		for k := r.Intn(4); k >= 0; k-- {
			b = b.With(handle.Handle(r.Intn(3000)+1), Level(r.Intn(int(numLevels))))
		}
		return a, b
	default:
		b := Empty(Level(r.Intn(int(numLevels))))
		for k := r.Intn(3); k >= 0; k-- {
			b = b.With(handle.Handle(r.Intn(3000)+1), Level(r.Intn(int(numLevels))))
		}
		if r.Intn(2) == 0 {
			return b, a
		}
		return a, b
	}
}

// randPred tabulates a random predicate that holds at most pairs, so
// PairwiseAll's walks run long before they find a failing pair.
func randPred(r *rand.Rand) (Pred, func(a, b Level) bool) {
	var fails [numLevels][numLevels]bool
	for k := r.Intn(4); k > 0; k-- {
		fails[r.Intn(int(numLevels))][r.Intn(int(numLevels))] = true
	}
	f := func(a, b Level) bool { return !fails[a][b] }
	return NewPred(f), f
}

// pairwiseSimple is the reference form of PairwiseAll.
func pairwiseSimple(a, b *Simple, f func(a, b Level) bool) bool {
	if !f(a.Def, b.Def) {
		return false
	}
	for _, h := range a.handles(b) {
		if !f(a.Get(h), b.Get(h)) {
			return false
		}
	}
	return true
}

// checkInvariants verifies the chunked representation of l: 1–64 entries
// per chunk, sorted within and across chunks, exact level sets, counts and
// bounds, no entry at the default, and the shared empty label when l has
// no entries.
func checkInvariants(t testing.TB, l *Label) {
	t.Helper()
	if l.nent == 0 && l != Empty(l.def) {
		t.Fatalf("entry-less label %v is not the shared empty label", l)
	}
	var lvls levelSet
	n := 0
	prev := handle.Handle(0)
	for ci, c := range l.chunks {
		if len(c.ents) < 1 || len(c.ents) > chunkMax {
			t.Fatalf("chunk %d holds %d entries", ci, len(c.ents))
		}
		var cl levelSet
		for _, e := range c.ents {
			h, lvl := unpack(e)
			if h <= prev {
				t.Fatalf("chunk %d: handle %v out of order after %v", ci, h, prev)
			}
			if lvl == l.def {
				t.Fatalf("chunk %d: entry %v at the default %v", ci, h, lvl)
			}
			prev = h
			cl |= levelBit(lvl)
		}
		if c.lvls != cl {
			t.Fatalf("chunk %d: level set %05b, want %05b", ci, c.lvls, cl)
		}
		lvls |= cl
		n += len(c.ents)
	}
	if l.lvls != lvls || l.nent != n {
		t.Fatalf("label level set %05b / %d entries, want %05b / %d", l.lvls, l.nent, lvls, n)
	}
	all := lvls | levelBit(l.def)
	if l.min != all.min() || l.max != all.max() {
		t.Fatalf("Min/Max = %v/%v, want %v/%v", l.min, l.max, all.min(), all.max())
	}
}

// checkChunkedOps cross-checks every lattice operation on a and b against
// the reference, and the representation of every result.
func checkChunkedOps(t *testing.T, a, b *Label, pred Pred, f func(a, b Level) bool) {
	t.Helper()
	sa, sb := FromLabel(a), FromLabel(b)
	checkInvariants(t, a)
	checkInvariants(t, b)
	if got, want := a.Leq(b), sa.Leq(sb); got != want {
		t.Fatalf("Leq = %v, want %v\na = %v\nb = %v", got, want, a, b)
	}
	if got, want := b.Leq(a), sb.Leq(sa); got != want {
		t.Fatalf("reverse Leq = %v, want %v\na = %v\nb = %v", got, want, a, b)
	}
	if got, want := PairwiseAll(a, b, pred), pairwiseSimple(sa, sb, f); got != want {
		t.Fatalf("PairwiseAll = %v, want %v\na = %v\nb = %v", got, want, a, b)
	}
	results := []struct {
		name string
		got  *Label
		want *Simple
	}{
		{"Lub", a.Lub(b), sa.Lub(sb)},
		{"Glb", a.Glb(b), sa.Glb(sb)},
		{"Contaminate", a.Contaminate(b), contaminateSimple(sa, sb)},
		{"reverse Contaminate", b.Contaminate(a), contaminateSimple(sb, sa)},
		{"StarRestrict", a.StarRestrict(), sa.StarRestrict()},
	}
	for _, r := range results {
		checkInvariants(t, r.got)
		if !FromLabel(r.got).Eq(r.want) {
			t.Fatalf("%s(%v, %v) = %v", r.name, a, b, r.got)
		}
	}
}

func TestChunkedAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	multi := 0
	for i := 0; i < 1500; i++ {
		a, b := genChunkedPair(r)
		if len(a.chunks) > 1 && len(b.chunks) > 1 {
			multi++
		}
		pred, f := randPred(r)
		checkChunkedOps(t, a, b, pred, f)
	}
	if multi < 300 {
		t.Fatalf("only %d of 1500 pairs were multi-chunk on both sides", multi)
	}
}

// decodeChunked builds a label from fuzz bytes in runs, so a few bytes
// span several chunks: each (gap, count, level) triple adds count%96+1
// entries at consecutive handles, gap%16 past the previous run, the level
// biased to ⋆. The first byte picks the default.
func decodeChunked(data []byte) (*Label, []byte) {
	if len(data) == 0 {
		return Empty(L1), nil
	}
	s := NewSimple(Level(data[0] % numLevels))
	data = data[1:]
	h := handle.Handle(1)
	for len(data) >= 3 && len(s.M) < 700 {
		h += handle.Handle(data[0] % 16)
		lvl := Star
		if data[2] >= 128 {
			lvl = Level(data[2] % numLevels)
		}
		for k := int(data[1]%96) + 1; k > 0; k-- {
			if lvl != s.Def {
				s.M[h] = lvl
			}
			h++
		}
		data = data[3:]
	}
	return s.ToLabel(), data
}

// FuzzLabelChunks cross-checks the lattice operations on multi-chunk
// labels against the reference, then mutates the first label through With
// (splitting and emptying chunks) and checks again.
func FuzzLabelChunks(f *testing.F) {
	f.Add([]byte{2, 0, 95, 0, 3, 95, 0, 0, 95, 200, 1, 10, 0, 1, 95, 0, 2, 90, 131, 1, 2, 3})
	f.Add([]byte{2, 0, 200, 0, 0, 95, 0, 2, 0, 50, 0, 1, 95, 0, 9, 9, 130})
	f.Add([]byte{0, 3, 60, 129, 1, 95, 0, 4, 0, 20, 200, 4, 1, 95, 129, 7, 44, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := decodeChunked(data)
		half := len(rest) / 2
		b, _ := decodeChunked(rest[:half])
		fn := func(x, y Level) bool { return x != y || x == Star }
		pred := NewPred(fn)
		checkChunkedOps(t, a, b, pred, fn)
		for muts := rest[half:]; len(muts) >= 2; muts = muts[2:] {
			a = a.With(handle.Handle(muts[0])*7+1, Level(muts[1]%numLevels))
		}
		checkChunkedOps(t, a, b, pred, fn)
	})
}

// starLabel builds a trusted server's send label: n handles at ⋆ over
// default 1, one every step handles from first, grown through With.
func starLabel(first, step, n int) *Label {
	l := Empty(L1)
	for i := 0; i < n; i++ {
		l = l.With(handle.Handle(first+i*step), Star)
	}
	return l
}

// sharedChunks counts the chunks of r held by pointer in l.
func sharedChunks(r, l *Label) int {
	in := make(map[*chunk]bool)
	for _, c := range l.chunks {
		in[c] = true
	}
	n := 0
	for _, c := range r.chunks {
		if in[c] {
			n++
		}
	}
	return n
}

func TestAllocBudgetStarLabels(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// Two trusted servers' labels, interleaved handle for handle.
	a, b := starLabel(1, 2, 1500), starLabel(2, 2, 1500)
	// Equation 5 on two all-⋆ labels is a no-op that the level sets decide.
	if allocs := testing.AllocsPerRun(100, func() { a.Contaminate(b) }); allocs != 0 {
		t.Errorf("Contaminate allocates %.1f times, want 0", allocs)
	}
	if a.Contaminate(b) != a {
		t.Error("no-op Contaminate must return its receiver")
	}
	// A predicate the level sets cannot decide walks both labels in full.
	disjointStars := NewPred(func(x, y Level) bool { return x != Star || y != Star })
	if !PairwiseAll(a, b, disjointStars) {
		t.Fatal("labels with disjoint handles share no ⋆")
	}
	if allocs := testing.AllocsPerRun(100, func() { PairwiseAll(a, b, disjointStars) }); allocs != 0 {
		t.Errorf("PairwiseAll allocates %.1f times, want 0", allocs)
	}
}

func TestBudgetOneEntryOpsShareChunks(t *testing.T) {
	l := starLabel(10, 3, 1500)
	if len(l.chunks) < 20 {
		t.Fatalf("want a label of many chunks, got %d", len(l.chunks))
	}
	for _, h := range []handle.Handle{
		9,      // before every entry
		1500,   // inside a chunk
		100000, // past every entry
	} {
		grant := New(L3, Entry{h, Star})
		taint := New(Star, Entry{h, L3})
		for _, r := range []struct {
			name string
			got  *Label
			want *Simple
		}{
			{"Glb grant", l.Glb(grant), FromLabel(l).Glb(FromLabel(grant))},
			{"Lub taint", l.Lub(taint), FromLabel(l).Lub(FromLabel(taint))},
			{"Contaminate taint", l.Contaminate(taint), contaminateSimple(FromLabel(l), FromLabel(taint))},
		} {
			checkInvariants(t, r.got)
			if !FromLabel(r.got).Eq(r.want) {
				t.Fatalf("%s h%d: wrong result %v", r.name, h, r.got)
			}
			if n := sharedChunks(r.got, l); n != len(l.chunks)-1 {
				t.Errorf("%s h%d: shares %d of %d chunks, want all but one", r.name, h, n, len(l.chunks))
			}
		}
	}
}

func TestEachAbove(t *testing.T) {
	l := starLabel(1, 1, 300).With(150, L3).With(400, L0)
	var got []Entry
	l.EachAbove(Star, func(h handle.Handle, lvl Level) bool {
		got = append(got, Entry{h, lvl})
		return true
	})
	if len(got) != 2 || got[0] != (Entry{150, L3}) || got[1] != (Entry{400, L0}) {
		t.Fatalf("EachAbove(⋆) = %v", got)
	}
	n := 0
	l.EachAbove(Star, func(handle.Handle, Level) bool { n++; return false })
	if n != 1 {
		t.Fatalf("EachAbove did not stop early: %d calls", n)
	}
}

func TestFootprintCountsSharedChunksOnce(t *testing.T) {
	l := starLabel(1, 1, 1000)
	l2 := l.With(5000, L3) // shares every chunk but the last
	var f Footprint
	f.Add(l)
	f.Add(l)
	if f.Bytes() != l.SizeBytes() {
		t.Fatalf("one label: %d bytes, want SizeBytes %d", f.Bytes(), l.SizeBytes())
	}
	f.Add(l2)
	f.Add(nil)
	last := l2.chunks[len(l2.chunks)-1]
	want := l.SizeBytes() + l2.headerBytes() + last.sizeBytes()
	if f.Bytes() != want {
		t.Fatalf("two labels sharing chunks: %d bytes, want %d", f.Bytes(), want)
	}
}
