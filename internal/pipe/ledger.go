package pipe

// Per-speculation-epoch power attribution.
//
// The paper's central metric splits every unit's activity into useful and
// wasted events, which requires knowing, for each squashed instruction, the
// events it had accumulated so far. Rather than carry a per-unit counter
// table on every in-flight instruction (written on every note, walked on
// every squash), attribution is per speculation epoch, Wattch-style: it
// needs no per-instruction counters,
// only a correct pool assignment at resolution — which speculation epochs
// deliver for whole instruction runs at once.
//
//   - An epoch is a run of consecutively fetched instructions bounded by
//     conditional branches: fetching a conditional branch closes the current
//     epoch (the branch is its last member) and opens a new one keyed by the
//     branch's sequence number, alongside the walker-arena checkpoint lease
//     the branch takes out (prog.Walker). The two handles part ways later —
//     the lease dies at resolution, the epoch must survive until its members
//     can neither be squashed nor produce further events — which is why the
//     epoch ring is its own arena rather than a field of the checkpoint slot.
//   - Every activity event lands in one flat per-epoch tally (the ledger):
//     an instruction's events are attributed to the epoch it was fetched in,
//     no matter which stage notes them or how much later.
//   - Epochs are squashed all-or-none. A flush at branch br kills exactly
//     the in-flight instructions younger than br, and those are exactly the
//     members of the epochs whose opening sequence number is >= br's: no
//     member of such an epoch has committed (in-order commit cannot pass the
//     unresolved br), and surviving instructions all belong to older epochs.
//     flushAfter therefore folds whole ledgers into the wasted pool —
//     O(epochs x units) instead of O(squashed instructions x touched units).
//   - An epoch retires (its slot recycles into the useful pool, where its
//     events already live via the activity tally) when its closing branch
//     commits: in-order commit guarantees every member has committed, so no
//     event can arrive late and no unresolved branch old enough to squash
//     the epoch remains. Wrong-path instructions still in flight when a run
//     drains were never squashed, so their epochs simply stay open and their
//     events stay useful: events move to the wasted pool at actual squash
//     only, never eagerly on the WrongPath mark.
//
// Exactness: ledgers and the pools they fold into are integer counters, so
// attribution is independent of fold order and batching granularity (the
// power.Meter.AddTally argument), and the member-set identities above make
// the folded totals equal a per-instruction count, count for count.

import (
	"math"

	"selthrottle/internal/power"
)

// epochRec is one open speculation epoch: the opening branch's sequence
// number (-1 for the base epoch) and the flat per-unit event ledger of the
// epoch's members. Counters are uint32: an epoch's per-unit event count is
// bounded by a small multiple of its member count, far below the range.
type epochRec struct {
	openSeq int64
	led     [power.NumUnits]uint32
}

// initEpochs sizes the epoch ring and opens the base epoch. Open epochs are
// bounded by the in-flight conditional branches (each non-youngest open epoch
// is closed by a distinct uncommitted branch) plus the one unclosed youngest
// epoch, so the machine's in-flight instruction capacity bounds the ring.
func (p *Pipeline) initEpochs(capacity int) {
	p.epochBuf = make([]epochRec, capacity)
	p.resetEpochs()
}

// resetEpochs clears every open ledger and reopens the base epoch, restoring
// the just-constructed state (Pipeline.Reset's analogue of the pool drain).
func (p *Pipeline) resetEpochs() {
	for i := int32(0); i < p.epochCount; i++ {
		p.epochBuf[p.epochSlot(i)].led = [power.NumUnits]uint32{}
	}
	p.epochHead, p.epochCount = 0, 0
	p.nextRetire = math.MaxInt64
	p.epochHW = 0
	p.openEpoch(-1)
}

// epochSlot maps the i-th open epoch (0 = oldest) to its ring slot.
func (p *Pipeline) epochSlot(i int32) int32 {
	s := p.epochHead + i
	if n := int32(len(p.epochBuf)); s >= n {
		s -= n
	}
	return s
}

// openEpoch opens a new youngest epoch keyed by the opening branch's
// sequence number. The slot's ledger is already zero: slots are cleared as
// they are folded or retired, so the per-branch open costs two words, not an
// 11-counter clear.
//
//st:hotpath
func (p *Pipeline) openEpoch(openSeq int64) {
	if int(p.epochCount) == len(p.epochBuf) {
		panic("pipe: epoch ring overflow") // invariant: ring sized to InFlightBranches
	}
	slot := p.epochSlot(p.epochCount)
	p.epochBuf[slot].openSeq = openSeq
	p.epochCount++
	p.curEpoch = slot
	if p.epochCount == 2 {
		p.nextRetire = p.epochBuf[p.epochSlot(1)].openSeq
	}
	if int(p.epochCount) > p.epochHW {
		p.epochHW = int(p.epochCount)
	}
}

// refreshNextRetire recomputes the cached retirement trigger: the opening
// sequence number of the second-oldest epoch, which is the oldest epoch's
// closing branch. Commit compares one committed sequence number against this
// single cached value instead of touching the ring.
func (p *Pipeline) refreshNextRetire() {
	p.nextRetire = math.MaxInt64
	if p.epochCount > 1 {
		p.nextRetire = p.epochBuf[p.epochSlot(1)].openSeq
	}
}

// retireEpochs recycles every epoch whose closing branch has committed (s is
// the committing sequence number): in-order commit has passed the epoch's
// youngest member, so no event can arrive late, and no unresolved branch old
// enough to squash the epoch remains. The ledger's events already live in
// the activity tally (the useful pool's feed), so retirement only clears the
// slot for reuse.
//
//st:hotpath
func (p *Pipeline) retireEpochs(s int64) {
	for p.epochCount > 1 && p.epochBuf[p.epochSlot(1)].openSeq <= s {
		p.epochBuf[p.epochHead].led = [power.NumUnits]uint32{}
		p.epochHead = p.epochSlot(1)
		p.epochCount--
	}
	p.refreshNextRetire()
}

// foldEpochs folds every epoch opened at or after sequence number brSeq into
// the wasted pool and reopens a fresh current epoch keyed by brSeq. The
// flush at branch brSeq squashes exactly the members of those epochs (see
// the package comment above), and post-recovery fetch continues at the
// speculation level the flushing branch itself occupies, so it gets a fresh
// epoch under the same key.
//
//st:hotpath
func (p *Pipeline) foldEpochs(brSeq int64) {
	for p.epochCount > 0 {
		top := &p.epochBuf[p.epochSlot(p.epochCount-1)]
		if top.openSeq < brSeq {
			break
		}
		for u, n := range top.led {
			p.wastedTally[u] += uint64(n)
		}
		top.led = [power.NumUnits]uint32{}
		p.epochCount--
	}
	// The flushing branch is in flight inside an older epoch, so the ring
	// can never drain completely.
	if p.epochCount == 0 {
		panic("pipe: flush folded every epoch") // invariant: flushing branch lives in an older epoch
	}
	p.openEpoch(brSeq) // also re-establishes curEpoch after the pops
	p.refreshNextRetire()
}

// EpochStats reports the epoch ring's behaviour: currently open epochs, ring
// capacity, and the high-water mark of concurrently open epochs. The ring is
// fixed at construction; tests pin the footprint the way PoolStats and
// prog.Walker.CkptStats pin the instruction pool and the checkpoint arena.
func (p *Pipeline) EpochStats() (open, capacity, highWater int) {
	return int(p.epochCount), len(p.epochBuf), p.epochHW
}

// note records one activity event on unit u attributed to in. The event
// lands in the run-wide activity tally (flushed to the meter once per Run)
// and in the ledger of in's fetch epoch, which carries it to the wasted pool
// if the epoch is squashed.
//
//st:hotpath
func (p *Pipeline) note(in *inst, u power.Unit) {
	p.tally[u]++
	p.epochBuf[in.epoch].led[u]++
}
