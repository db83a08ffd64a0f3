package label

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"asbestos/internal/handle"
)

// Entry is one explicit (handle, level) pair of a label.
type Entry struct {
	H handle.Handle
	L Level
}

// chunkMax is the maximum number of entries per chunk (paper §5.6: "a sorted
// array of chunks, each of which is a sorted array of up to 64 vnode
// pointers").
const chunkMax = 64

// chunkMin is the size below which the lattice operations merge a chunk
// they emit into its neighbour, so results never fragment into runs of
// tiny chunks however many one-entry grants and taints they absorb.
const chunkMin = chunkMax / 4

// chunkAllocQuantum models the allocation granularity of chunk entry arrays
// for memory accounting: entries are allocated in blocks of 32 slots, so the
// smallest label (one chunk, ≤32 entries) occupies 296 bytes, matching the
// paper's "smallest label is about 300 bytes long, including space for one
// chunk".
const chunkAllocQuantum = 32

// packed entry: upper 61 bits handle, lower 3 bits level (paper §5.6).
func pack(h handle.Handle, l Level) uint64 { return uint64(h)<<3 | uint64(l) }

func unpack(e uint64) (handle.Handle, Level) {
	return handle.Handle(e >> 3), Level(e & 7)
}

// levelSet is a set of levels, one bit per level. Every chunk and every
// label caches the set of levels its explicit entries take, next to the
// paper's min/max bounds: an operation that meets a whole chunk against
// the other operand's default judges it from the set alone, and a label
// pair whose level sets and defaults already prove a predicate needs no
// walk at all.
type levelSet uint8

func levelBit(l Level) levelSet { return 1 << l }

func (s levelSet) has(l Level) bool { return s&levelBit(l) != 0 }

// min and max return the lowest and highest level of a non-empty set.
func (s levelSet) min() Level { return Level(bits.TrailingZeros8(uint8(s))) }
func (s levelSet) max() Level { return Level(7 - bits.LeadingZeros8(uint8(s))) }

// chunk is a sorted run of 1–64 packed entries and the set of their levels.
// Chunks are immutable once built and are shared between labels (the
// paper's copy-on-write sharing): an operation that leaves a whole chunk
// unchanged reuses its pointer.
type chunk struct {
	ents []uint64
	lvls levelSet
}

func newChunk(ents []uint64) *chunk {
	c := &chunk{ents: ents}
	for _, e := range ents {
		c.lvls |= levelBit(Level(e & 7))
	}
	return c
}

func (c *chunk) last() handle.Handle { return handle.Handle(c.ents[len(c.ents)-1] >> 3) }

// Label is an immutable Asbestos label. The zero value is not meaningful;
// use Empty or New. Labels are immutable, so they and their chunks are
// shared freely: an operation returns its receiver when the cached bounds
// and level sets show the result unchanged, and otherwise rebuilds only
// the chunks the other operand's entries land in, reusing every other
// chunk by pointer — the paper's refcounted copy-on-write sharing (§5.6).
type Label struct {
	chunks   []*chunk
	def      Level
	lvls     levelSet // levels of the explicit entries; never holds def
	min, max Level    // over all handles, including the default
	nent     int
}

var empties [numLevels]*Label

func init() {
	for l := Star; l < numLevels; l++ {
		empties[l] = &Label{def: l, min: l, max: l}
	}
}

// Empty returns the label mapping every handle to def.
func Empty(def Level) *Label {
	if !def.Valid() {
		panic("label: invalid default level")
	}
	return empties[def]
}

// New builds a label with the given default and explicit entries. Entries
// whose level equals the default are elided (canonical form). New panics on
// duplicate handles, invalid levels, or invalid handles: labels come from
// trusted kernel paths and malformed input is a programming error.
func New(def Level, entries ...Entry) *Label {
	if !def.Valid() {
		panic("label: invalid default level")
	}
	ents := make([]uint64, 0, len(entries))
	for _, e := range entries {
		if !e.L.Valid() {
			panic("label: invalid level " + e.L.String())
		}
		if !e.H.Valid() {
			panic("label: invalid handle " + e.H.String())
		}
		if e.L != def {
			ents = append(ents, pack(e.H, e.L))
		}
	}
	slices.SortFunc(ents, func(a, b uint64) int { return cmp.Compare(a>>3, b>>3) })
	for i := 1; i < len(ents); i++ {
		if ents[i]>>3 == ents[i-1]>>3 {
			h, _ := unpack(ents[i])
			panic("label: duplicate handle " + h.String())
		}
	}
	return build(def, ents)
}

// build assembles a canonical label from sorted packed entries with no
// duplicates and no level equal to def, in chunks of even size.
func build(def Level, ents []uint64) *Label {
	k := (len(ents) + chunkMax - 1) / chunkMax
	l := &Label{def: def, chunks: make([]*chunk, 0, k)}
	for ; k > 0; k-- {
		n := (len(ents) + k - 1) / k
		l.chunks = append(l.chunks, newChunk(ents[:n:n]))
		ents = ents[n:]
	}
	return l.seal()
}

// seal computes a freshly assembled label's entry count, level set and
// bounds from its chunks, and returns the shared empty label instead when
// no entry is left.
func (l *Label) seal() *Label {
	for _, c := range l.chunks {
		l.lvls |= c.lvls
		l.nent += len(c.ents)
	}
	if l.nent == 0 {
		return Empty(l.def)
	}
	all := l.lvls | levelBit(l.def)
	l.min, l.max = all.min(), all.max()
	return l
}

// Default returns the label's default level.
func (l *Label) Default() Level { return l.def }

// Len returns the number of explicit entries.
func (l *Label) Len() int { return l.nent }

// Min and Max return the label's level bounds over all handles (including
// the default). The paper caches these to enable fast-path lattice ops.
func (l *Label) Min() Level { return l.min }
func (l *Label) Max() Level { return l.max }

// Get returns the level of handle h.
func (l *Label) Get(h handle.Handle) Level {
	// Binary search for the chunk whose span may contain h.
	i := sort.Search(len(l.chunks), func(i int) bool { return l.chunks[i].last() >= h })
	if i == len(l.chunks) {
		return l.def
	}
	c := l.chunks[i]
	j := sort.Search(len(c.ents), func(j int) bool { return c.ents[j]>>3 >= uint64(h) })
	if j < len(c.ents) {
		if hh, lvl := unpack(c.ents[j]); hh == h {
			return lvl
		}
	}
	return l.def
}

// With returns a label identical to l except that handle h maps to lvl.
// Only the chunk h falls in is rebuilt; every other chunk is shared with
// the receiver (copy-on-write).
func (l *Label) With(h handle.Handle, lvl Level) *Label {
	if !lvl.Valid() {
		panic("label: invalid level " + lvl.String())
	}
	if !h.Valid() {
		panic("label: invalid handle " + h.String())
	}
	if l.Get(h) == lvl {
		return l
	}
	// The chunk whose span may contain h, or the last one when h lies
	// beyond them all.
	i := sort.Search(len(l.chunks), func(i int) bool { return l.chunks[i].last() >= h })
	if i == len(l.chunks) && i > 0 {
		i--
	}
	var old []uint64
	if i < len(l.chunks) {
		old = l.chunks[i].ents
	}
	j := sort.Search(len(old), func(j int) bool { return old[j]>>3 >= uint64(h) })
	ents := append(make([]uint64, 0, len(old)+1), old[:j]...)
	if lvl != l.def {
		ents = append(ents, pack(h, lvl))
	}
	if j < len(old) && old[j]>>3 == uint64(h) {
		j++
	}
	ents = append(ents, old[j:]...)

	out := &Label{def: l.def, chunks: make([]*chunk, 0, len(l.chunks)+1)}
	out.chunks = append(out.chunks, l.chunks[:i]...)
	switch {
	case len(ents) == 0:
		// the chunk vanished
	case len(ents) > chunkMax:
		mid := len(ents) / 2
		out.chunks = append(out.chunks, newChunk(ents[:mid:mid]), newChunk(ents[mid:]))
	default:
		out.chunks = append(out.chunks, newChunk(ents))
	}
	if i < len(l.chunks) {
		out.chunks = append(out.chunks, l.chunks[i+1:]...)
	}
	return out.seal()
}

// iter walks a label's explicit entries in handle order.
type iter struct {
	l      *Label
	ci, ei int
}

func (it *iter) peek() (handle.Handle, Level, bool) {
	if it.ci >= len(it.l.chunks) {
		return 0, 0, false
	}
	h, lvl := unpack(it.l.chunks[it.ci].ents[it.ei])
	return h, lvl, true
}

func (it *iter) advance() {
	it.ei++
	if it.ei >= len(it.l.chunks[it.ci].ents) {
		it.ci++
		it.ei = 0
	}
}

// span returns the chunk under the cursor when the cursor sits at the
// chunk's start and the whole chunk precedes bound, the other operand's
// next entry — so every handle in it meets the other operand's default.
// With more false the other operand has no entries left, and any chunk
// qualifies. Otherwise span returns nil.
func (it *iter) span(bound handle.Handle, more bool) *chunk {
	if it.ei != 0 {
		return nil
	}
	c := it.l.chunks[it.ci]
	if more && c.last() >= bound {
		return nil
	}
	return c
}

// skip moves the cursor past the chunk span returned.
func (it *iter) skip() { it.ci++ }

// Pred is a predicate over pairs of levels, tabulated once: ok[a] is the
// set of levels b for which it holds at (a, b). The table is what lets
// PairwiseAll judge a whole chunk, or a whole label pair, from level sets.
type Pred struct{ ok [numLevels]levelSet }

// NewPred tabulates f. Build predicates once, at package initialization.
func NewPred(f func(a, b Level) bool) Pred {
	var p Pred
	for a := Star; a < numLevels; a++ {
		for b := Star; b < numLevels; b++ {
			if f(a, b) {
				p.ok[a] |= levelBit(b)
			}
		}
	}
	return p
}

// holds reports whether the predicate holds at every pair in as × bs.
func (p *Pred) holds(as, bs levelSet) bool {
	for a := Star; a < numLevels; a++ {
		if as.has(a) && bs&^p.ok[a] != 0 {
			return false
		}
	}
	return true
}

// PairwiseAll reports whether p(a(h), b(h)) holds for every handle h. This
// is the workhorse behind ⊑ and the send-time privilege requirements
// (paper Figure 4, requirements 2 and 3).
//
// When p holds at every pair of a level a takes and a level b takes (the
// label level sets plus defaults), the answer is yes with no walk: two
// labels of ⋆ privileges over one default decide most predicates this way.
// Otherwise the entry lists are merged, and a chunk that lies wholly
// between two entries of the other operand is judged from its level set
// in one step, so the walk costs time in proportion to where the operands
// interleave rather than to their size.
func PairwiseAll(a, b *Label, p Pred) bool {
	if !p.ok[a.def].has(b.def) {
		return false
	}
	if p.holds(a.lvls|levelBit(a.def), b.lvls|levelBit(b.def)) {
		return true
	}
	// The levels an entry of each side may take where the other side sits
	// at its default.
	var okA levelSet
	for x := Star; x < numLevels; x++ {
		if p.ok[x].has(b.def) {
			okA |= levelBit(x)
		}
	}
	okB := p.ok[a.def]
	ia, ib := iter{l: a}, iter{l: b}
	for {
		ha, la, moreA := ia.peek()
		hb, lb, moreB := ib.peek()
		switch {
		case !moreA && !moreB:
			return true
		case moreA && (!moreB || ha < hb):
			if c := ia.span(hb, moreB); c != nil {
				if c.lvls&^okA != 0 {
					return false
				}
				ia.skip()
				continue
			}
			if !okA.has(la) {
				return false
			}
			ia.advance()
		case moreB && (!moreA || hb < ha):
			if c := ib.span(ha, moreA); c != nil {
				if c.lvls&^okB != 0 {
					return false
				}
				ib.skip()
				continue
			}
			if !okB.has(lb) {
				return false
			}
			ib.advance()
		default: // ha == hb
			if !p.ok[la].has(lb) {
				return false
			}
			ia.advance()
			ib.advance()
		}
	}
}

// op is a pointwise operation on levels, tabulated once: op[a][b] is the
// result at a handle the operands map to a and b.
type op [numLevels][numLevels]Level

func newOp(f func(a, b Level) Level) *op {
	var o op
	for a := Star; a < numLevels; a++ {
		for b := Star; b < numLevels; b++ {
			o[a][b] = f(a, b)
		}
	}
	return &o
}

var (
	leqPred = NewPred(func(a, b Level) bool { return a <= b })
	// contaminateNoop holds at (ES(h), QS(h)) where Equation 5 leaves QS(h)
	// unchanged: the receiver holds ⋆ or already sits at or above ES(h).
	contaminateNoop = NewPred(func(e, q Level) bool { return q == Star || e <= q })

	lubOp = newOp(maxLevel)
	glbOp = newOp(minLevel)
	// contaminateOp is Equation 5 at one handle, QS(h) against ES(h): a ⋆
	// keeps its privilege, anything else rises to the incoming level.
	contaminateOp = newOp(func(q, e Level) Level {
		if q == Star {
			return Star
		}
		return maxLevel(q, e)
	})
	// starOp projects its first operand (paper Figure 3's L⋆).
	starOp = newOp(func(a, _ Level) Level { return starProject(a) })
)

// Leq reports a ⊑ b: a(h) ≤ b(h) for all h. The cached bounds and level
// sets decide most pairs without a walk (paper §5.6); the rest walk only
// where the two labels interleave (PairwiseAll).
func (l *Label) Leq(m *Label) bool {
	if l == m || l.max <= m.min {
		return true
	}
	if l.min > m.max {
		return false
	}
	return PairwiseAll(l, m, leqPred)
}

// side is what one operand's entries become where the other operand sits
// at its default: the mapped level of each, the levels left unchanged, and
// the levels that land on the result's default and vanish.
type side struct {
	to         [numLevels]Level
	keep, drop levelSet
}

func newSide(o *op, first bool, other, def Level) side {
	var s side
	for x := Star; x < numLevels; x++ {
		if first {
			s.to[x] = o[x][other]
		} else {
			s.to[x] = o[other][x]
		}
		switch s.to[x] {
		case def:
			s.drop |= levelBit(x)
		case x:
			s.keep |= levelBit(x)
		}
	}
	return s
}

// combine merges two labels pointwise with o. Where a chunk of one operand
// lies wholly between two entries of the other, every handle in it meets
// the other side's default, so the chunk is handled as one unit: shared by
// pointer when o leaves all its levels unchanged, dropped when o maps them
// all to the result's default, and otherwise mapped entry by entry with no
// merge comparisons. Only chunks the operands interleave in are merged, so
// Glb with a one-entry grant or Lub with a one-entry taint rebuilds one
// chunk of a large label and shares the rest.
func combine(a, b *Label, o *op) *Label {
	def := o[a.def][b.def]
	sa := newSide(o, true, b.def, def)
	sb := newSide(o, false, a.def, def)
	out := builder{
		l:    &Label{def: def, chunks: make([]*chunk, 0, len(a.chunks)+len(b.chunks))},
		room: a.nent + b.nent,
	}
	ia, ib := iter{l: a}, iter{l: b}
	for {
		ha, la, moreA := ia.peek()
		hb, lb, moreB := ib.peek()
		switch {
		case !moreA && !moreB:
			return out.finish()
		case moreA && (!moreB || ha < hb):
			if c := ia.span(hb, moreB); c != nil {
				out.chunk(c, &sa)
				ia.skip()
				continue
			}
			out.add(ha, sa.to[la])
			ia.advance()
		case moreB && (!moreA || hb < ha):
			if c := ib.span(ha, moreA); c != nil {
				out.chunk(c, &sb)
				ib.skip()
				continue
			}
			out.add(hb, sb.to[lb])
			ib.advance()
		default:
			out.add(ha, o[la][lb])
			ia.advance()
			ib.advance()
		}
	}
}

// builder assembles a result label in handle order from whole chunks and
// loose entries.
type builder struct {
	l    *Label
	pend []uint64 // loose entries not yet in a chunk
	room int      // bound on the loose entries, to size pend
}

// add appends one entry, eliding it at the default.
func (b *builder) add(h handle.Handle, v Level) {
	if v == b.l.def {
		return
	}
	if b.pend == nil {
		b.pend = make([]uint64, 0, min(b.room, chunkMax))
	}
	b.pend = append(b.pend, pack(h, v))
	if len(b.pend) == chunkMax {
		b.flush()
	}
}

// chunk appends a whole chunk whose handles all meet the other operand's
// default, mapped through s.
func (b *builder) chunk(c *chunk, s *side) {
	switch {
	case c.lvls&^s.keep == 0:
		b.flush()
		b.emit(c.ents, c)
	case c.lvls&^s.drop == 0:
		// every entry lands on the default
	default:
		for _, e := range c.ents {
			h, lvl := unpack(e)
			b.add(h, s.to[lvl])
		}
	}
}

func (b *builder) flush() {
	if len(b.pend) > 0 {
		b.emit(b.pend, nil)
		b.pend = nil
	}
}

// emit appends a run of entries: chunk c itself when c is non-nil, a new
// chunk otherwise. A run or a last chunk shorter than chunkMin is merged
// with its neighbour (and the merge split in halves past chunkMax).
func (b *builder) emit(ents []uint64, c *chunk) {
	n := len(b.l.chunks)
	if n > 0 {
		last := b.l.chunks[n-1]
		if len(last.ents) < chunkMin || len(ents) < chunkMin {
			merged := append(append(make([]uint64, 0, len(last.ents)+len(ents)), last.ents...), ents...)
			b.l.chunks = b.l.chunks[:n-1]
			if len(merged) > chunkMax {
				mid := len(merged) / 2
				b.l.chunks = append(b.l.chunks, newChunk(merged[:mid:mid]))
				merged = merged[mid:]
			}
			ents, c = merged, nil
		}
	}
	if c == nil {
		c = newChunk(ents)
	}
	b.l.chunks = append(b.l.chunks, c)
}

func (b *builder) finish() *Label {
	b.flush()
	return b.l.seal()
}

// Lub returns the least upper bound a ⊔ b: pointwise max. Used to combine
// contamination when a message is delivered (paper Equation 2).
func (l *Label) Lub(m *Label) *Label {
	// Fast paths from cached bounds (paper §5.6: "if L2's maximum level is
	// no larger than L1's minimum level, then L1 ⊔ L2 = L1 by definition").
	if l == m || m.max <= l.min {
		return l
	}
	if l.max <= m.min {
		return m
	}
	// Absorption without allocating: l ⊔ m = l exactly when m ⊑ l — the
	// steady state of a delivery whose contamination the receiver already
	// carries.
	if m.Leq(l) {
		return l
	}
	if l.Leq(m) {
		return m
	}
	return combine(l, m, lubOp)
}

// Glb returns the greatest lower bound a ⊓ b: pointwise min. Used for
// declassification: ⊓ against a stars-only label preserves the receiver's
// ⋆ privileges during contamination (paper Equation 5). Absorption and
// chunk sharing work as in Lub.
func (l *Label) Glb(m *Label) *Label {
	if l == m || m.min >= l.max {
		return l
	}
	if l.min >= m.max {
		return m
	}
	if l.Leq(m) {
		return l
	}
	if m.Leq(l) {
		return m
	}
	return combine(l, m, glbOp)
}

// Contaminate returns the Equation 5 update QS ⊔ (ES ⊓ QS⋆) in one fused
// pass: pointwise, a handle held at ⋆ keeps its privilege, anything else
// takes the max of the current level and the incoming effective level. The
// fused form avoids materializing two intermediate labels on every message
// delivery — the hot path of the whole system.
func (l *Label) Contaminate(es *Label) *Label {
	if l == es || es.max <= l.min {
		return l // nothing in es exceeds anything here
	}
	// No-op detection without allocating: the update leaves QS unchanged
	// exactly when, pointwise, the receiver holds ⋆ or already sits at or
	// above the incoming level — the steady state of a contaminated worker
	// receiving its user's traffic, and of two trusted servers whose labels
	// hold only ⋆ entries, which the level sets decide with no walk.
	if PairwiseAll(es, l, contaminateNoop) {
		return l
	}
	return combine(l, es, contaminateOp)
}

// StarRestrict returns L⋆: ⋆ where the label has ⋆, 3 everywhere else
// (paper Figure 3). It projects a label onto its declassification
// privileges; chunks of ⋆ entries alone are shared with the receiver.
func (l *Label) StarRestrict() *Label {
	if l.min > Star {
		return Empty(L3) // no stars at all
	}
	return combine(l, Empty(Star), starOp)
}

// Eq reports whether two labels are the same function.
func (l *Label) Eq(m *Label) bool {
	if l == m {
		return true
	}
	if l.def != m.def || l.nent != m.nent {
		return false
	}
	ia, ib := iter{l: l}, iter{l: m}
	for {
		ha, la, oka := ia.peek()
		hb, lb, okb := ib.peek()
		if !oka {
			return !okb
		}
		if !okb || ha != hb || la != lb {
			return false
		}
		ia.advance()
		ib.advance()
	}
}

// Each calls f for every explicit entry in handle order; f returning false
// stops the walk.
func (l *Label) Each(f func(handle.Handle, Level) bool) {
	for _, c := range l.chunks {
		for _, e := range c.ents {
			h, lvl := unpack(e)
			if !f(h, lvl) {
				return
			}
		}
	}
}

// Entries returns the explicit entries in handle order.
func (l *Label) Entries() []Entry {
	out := make([]Entry, 0, l.nent)
	l.Each(func(h handle.Handle, lvl Level) bool {
		out = append(out, Entry{h, lvl})
		return true
	})
	return out
}

// EachAbove calls f, in handle order, for every explicit entry whose level
// exceeds floor; f returning false stops the walk. Chunks whose levels all
// lie at or below floor are skipped whole, so a walk above ⋆ over a
// trusted server's label of privileges touches none of its entries.
func (l *Label) EachAbove(floor Level, f func(handle.Handle, Level) bool) {
	for _, c := range l.chunks {
		if c.lvls.max() <= floor {
			continue
		}
		for _, e := range c.ents {
			if h, lvl := unpack(e); lvl > floor && !f(h, lvl) {
				return
			}
		}
	}
}

// SizeBytes models the kernel memory occupied by this label: a 32-byte
// header plus, per chunk, an 8-byte chunk header and entry storage rounded
// up to 32-slot blocks. The smallest label is 296 bytes, matching the
// paper's "about 300 bytes, including space for one chunk" (§5.6).
func (l *Label) SizeBytes() int {
	n := l.headerBytes()
	for _, c := range l.chunks {
		n += c.sizeBytes()
	}
	return n
}

// headerBytes is the part of SizeBytes a label owns alone: the header, the
// chunk headers, and the one chunk an empty label reserves.
func (l *Label) headerBytes() int {
	if len(l.chunks) == 0 {
		return 32 + 8 + chunkAllocQuantum*8
	}
	return 32 + 8*len(l.chunks)
}

// sizeBytes is a chunk's entry storage, which every label holding the
// chunk shares.
func (c *chunk) sizeBytes() int {
	blocks := (len(c.ents) + chunkAllocQuantum - 1) / chunkAllocQuantum
	return blocks * chunkAllocQuantum * 8
}

// Footprint totals the modelled memory (SizeBytes) of a set of labels,
// counting each label once and each chunk once however many labels share
// it — the paper's refcounted copy-on-write sharing. The zero value is an
// empty total, ready to use.
type Footprint struct {
	labels map[*Label]struct{}
	chunks map[*chunk]struct{}
	bytes  int
}

// Add counts l and those of its chunks not yet counted; nil is ignored.
func (f *Footprint) Add(l *Label) {
	if l == nil {
		return
	}
	if _, ok := f.labels[l]; ok {
		return
	}
	if f.labels == nil {
		f.labels, f.chunks = make(map[*Label]struct{}), make(map[*chunk]struct{})
	}
	f.labels[l] = struct{}{}
	f.bytes += l.headerBytes()
	for _, c := range l.chunks {
		if _, ok := f.chunks[c]; !ok {
			f.chunks[c] = struct{}{}
			f.bytes += c.sizeBytes()
		}
	}
}

// Bytes returns the total so far.
func (f *Footprint) Bytes() int { return f.bytes }

// String renders the label in the paper's set notation, e.g. "{h7 *, h9 3, 1}".
func (l *Label) String() string {
	var b strings.Builder
	b.WriteByte('{')
	l.Each(func(h handle.Handle, lvl Level) bool {
		fmt.Fprintf(&b, "%s %s, ", h, lvl)
		return true
	})
	b.WriteString(l.def.String())
	b.WriteByte('}')
	return b.String()
}

// Parse parses the String representation: "{h7 *, h9 3, 1}" or "{1}".
func Parse(s string) (*Label, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("label: %q is not wrapped in braces", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	defStr := strings.TrimSpace(parts[len(parts)-1])
	def, ok := ParseLevel(defStr)
	if !ok {
		return nil, fmt.Errorf("label: bad default level %q", defStr)
	}
	var entries []Entry
	for _, p := range parts[:len(parts)-1] {
		fields := strings.Fields(strings.TrimSpace(p))
		if len(fields) != 2 {
			return nil, fmt.Errorf("label: bad entry %q", p)
		}
		hs := strings.TrimPrefix(fields[0], "h")
		var hv uint64
		if _, err := fmt.Sscanf(hs, "%d", &hv); err != nil {
			return nil, fmt.Errorf("label: bad handle %q", fields[0])
		}
		lvl, ok := ParseLevel(fields[1])
		if !ok {
			return nil, fmt.Errorf("label: bad level %q", fields[1])
		}
		entries = append(entries, Entry{handle.Handle(hv), lvl})
	}
	var l *Label
	func() {
		defer func() { recover() }()
		l = New(def, entries...)
	}()
	if l == nil {
		return nil, fmt.Errorf("label: invalid entries in %q", s)
	}
	return l, nil
}
