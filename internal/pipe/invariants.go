package pipe

import (
	"fmt"
	"math"

	"selthrottle/internal/isa"
	"selthrottle/internal/prog"
)

// CheckInvariants validates the core's internal consistency. It is called by
// tests after aggressive flush/throttle activity; any violation is a
// simulator bug, never a workload property.
//
// Invariants:
//  1. The window is ordered by sequence number (age order).
//  2. lsqUsed equals the number of memory operations in the window.
//  3. The rename table maps each register to the youngest in-window
//     producer of that register (or to nothing).
//  4. The front-end delay line holds only instructions younger than
//     everything in the window, and is itself age-ordered.
//  5. No committed (retired) instruction lingers anywhere.
//  6. Event-issue bookkeeping: every resident instruction
//     records its true ring slot, the ready bitmap flags exactly the
//     window's ready unissued instructions, and the store/barrier side
//     lists cover every incomplete store and every unissued barrier
//     carrier in the window.
//  7. Checkpoint-lease accounting: every unresolved in-flight conditional
//     branch holds exactly one arena lease, nothing else holds any, and the
//     walker's leased count matches — i.e. resolution, squash, and recovery
//     can never leak (or double-free) a checkpoint slot.
//  8. Epoch-ledger accounting (see ledger.go): the open-epoch ring is
//     ordered by opening sequence number, the cached current-epoch and
//     retirement triggers match the ring, and every in-flight instruction
//     is bound to the open epoch whose span covers its sequence number.
func (p *Pipeline) CheckInvariants() error {
	// 1 + 2: window order and LSQ accounting.
	var prev uint64
	lsq := 0
	youngest := uint64(0)
	for i := 0; i < p.window.Len(); i++ {
		in := p.window.At(i)
		if i > 0 && in.d.Seq <= prev {
			return fmt.Errorf("window out of order at %d: %d after %d", i, in.d.Seq, prev)
		}
		prev = in.d.Seq
		youngest = in.d.Seq
		if in.isMem() {
			lsq++
		}
		if in.squashed {
			return fmt.Errorf("squashed instruction %d still in window", in.d.Seq)
		}
	}
	if lsq != p.lsqUsed {
		return fmt.Errorf("lsqUsed %d, window holds %d memory ops", p.lsqUsed, lsq)
	}

	// 3: rename table points at the youngest in-window producer.
	var want [isa.NumRegs]*inst
	for i := 0; i < p.window.Len(); i++ {
		in := p.window.At(i)
		if d := in.d.St.Dest; d != isa.RegNone {
			want[d] = in
		}
	}
	for r := range p.regs {
		got := p.regs[r]
		if got == nil {
			continue // architecturally ready; always safe
		}
		if got.squashed {
			return fmt.Errorf("rename table r%d points at a squashed instruction", r)
		}
		if want[r] != nil && got != want[r] {
			return fmt.Errorf("rename table r%d points at seq %d, youngest producer is %d",
				r, got.d.Seq, want[r].d.Seq)
		}
	}

	// 4: the front end holds only instructions younger than the window, in
	// age order, and its cursors and segment occupancy counters match the
	// resident instructions.
	if err := p.checkFrontEnd(youngest); err != nil {
		return err
	}

	// 6: event-driven issue bookkeeping mirrors the window exactly.
	expect := make([]uint64, len(p.readyMask))
	stores := make(map[uint64]bool)
	barriers := make(map[uint64]bool)
	for _, e := range p.storeQ {
		if e.in.d.Seq == e.seq && !e.in.done && !e.in.squashed {
			stores[e.seq] = true
		}
	}
	for _, e := range p.barrierQ {
		if e.in.d.Seq == e.seq && !e.in.issued && !e.in.squashed {
			barriers[e.seq] = true
		}
	}
	for i := 0; i < p.window.Len(); i++ {
		in := p.window.At(i)
		if slot := (p.window.head + i) % p.window.Cap(); int(in.wpos) != slot {
			return fmt.Errorf("seq %d records slot %d, resides in slot %d", in.d.Seq, in.wpos, slot)
		}
		if !in.issued {
			if ready := in.ready(); ready != (in.nwait == 0) {
				return fmt.Errorf("seq %d: nwait %d disagrees with pointer-chased readiness %v",
					in.d.Seq, in.nwait, ready)
			}
			if in.ready() {
				expect[in.wpos>>6] |= 1 << uint(in.wpos&63)
			}
		}
		if in.d.St.Op == isa.OpStore && !in.done && !stores[in.d.Seq] {
			return fmt.Errorf("incomplete store seq %d missing from storeQ", in.d.Seq)
		}
		if in.hasBarrier && !in.issued && !barriers[in.d.Seq] {
			return fmt.Errorf("unissued barrier carrier seq %d missing from barrierQ", in.d.Seq)
		}
	}
	for w := range expect {
		if expect[w] != p.readyMask[w] {
			return fmt.Errorf("ready bitmap word %d is %#x, window implies %#x", w, p.readyMask[w], expect[w])
		}
	}

	// 7: checkpoint-lease accounting. Branches resolve exactly at
	// completion, so an in-flight branch must hold a lease iff it is not
	// done; squashed wheel residue must hold none (squash released it).
	leases := 0
	checkLease := func(name string, in *inst, leases *int) error {
		isBranch := in.d.St.Op == isa.OpBranch
		switch {
		case isBranch && !in.done && in.d.Ckpt == prog.NoCkpt:
			return fmt.Errorf("%s: unresolved branch seq %d lost its checkpoint lease", name, in.d.Seq)
		case isBranch && in.done && in.d.Ckpt != prog.NoCkpt:
			return fmt.Errorf("%s: resolved branch seq %d still holds checkpoint %d", name, in.d.Seq, in.d.Ckpt)
		case !isBranch && in.d.Ckpt != prog.NoCkpt:
			return fmt.Errorf("%s: non-branch seq %d holds checkpoint %d", name, in.d.Seq, in.d.Ckpt)
		}
		if in.d.Ckpt != prog.NoCkpt {
			*leases++
		}
		return nil
	}
	countLeases := func(name string, q *ring[*inst]) error {
		for i := 0; i < q.Len(); i++ {
			if err := checkLease(name, q.At(i), &leases); err != nil {
				return err
			}
		}
		return nil
	}
	if err := countLeases("frontend", p.frontQ); err != nil {
		return err
	}
	if err := countLeases("window", p.window); err != nil {
		return err
	}
	for slot := range p.compQ {
		for _, in := range p.compQ[slot] {
			if in.squashed && in.d.Ckpt != prog.NoCkpt {
				return fmt.Errorf("wheel slot %d: squashed seq %d still holds checkpoint %d", slot, in.d.Seq, in.d.Ckpt)
			}
		}
	}
	if leased, _, _ := p.walker.CkptStats(); leased != leases {
		return fmt.Errorf("walker reports %d leased checkpoints, pipeline holds %d", leased, leases)
	}

	// 8: epoch-ledger accounting.
	return p.checkEpochs()
}

// checkEpochs validates the speculation-epoch ring and the in-flight
// instructions' epoch bindings (invariant 8).
func (p *Pipeline) checkEpochs() error {
	if p.epochCount < 1 {
		return fmt.Errorf("no open epoch")
	}
	if int(p.epochCount) > len(p.epochBuf) {
		return fmt.Errorf("epoch ring holds %d of %d slots", p.epochCount, len(p.epochBuf))
	}
	if want := p.epochSlot(p.epochCount - 1); p.curEpoch != want {
		return fmt.Errorf("curEpoch %d, youngest open slot is %d", p.curEpoch, want)
	}
	wantRetire := int64(math.MaxInt64)
	if p.epochCount > 1 {
		wantRetire = p.epochBuf[p.epochSlot(1)].openSeq
	}
	if p.nextRetire != wantRetire {
		return fmt.Errorf("nextRetire %d, ring implies %d", p.nextRetire, wantRetire)
	}
	// pos maps a ring slot to its open-epoch position (-1 = not open), and
	// the walk checks the age ordering.
	pos := make([]int32, len(p.epochBuf))
	for i := range pos {
		pos[i] = -1
	}
	prev := int64(math.MinInt64)
	for i := int32(0); i < p.epochCount; i++ {
		slot := p.epochSlot(i)
		e := &p.epochBuf[slot]
		if i > 0 && e.openSeq <= prev {
			return fmt.Errorf("epoch ring out of order at %d: openSeq %d after %d", i, e.openSeq, prev)
		}
		prev = e.openSeq
		pos[slot] = i
	}

	// Every in-flight instruction must be bound to the open epoch whose
	// span covers its sequence number.
	checkInst := func(in *inst) error {
		if in.epoch < 0 || int(in.epoch) >= len(p.epochBuf) || pos[in.epoch] < 0 {
			return fmt.Errorf("seq %d bound to epoch slot %d, which is not open", in.d.Seq, in.epoch)
		}
		i := pos[in.epoch]
		if open := p.epochBuf[in.epoch].openSeq; int64(in.d.Seq) <= open {
			return fmt.Errorf("seq %d not younger than its epoch's opening seq %d", in.d.Seq, open)
		}
		if i+1 < p.epochCount {
			if next := p.epochBuf[p.epochSlot(i+1)].openSeq; int64(in.d.Seq) > next {
				return fmt.Errorf("seq %d younger than its epoch's closing seq %d", in.d.Seq, next)
			}
		}
		return nil
	}
	checkRing := func(q *ring[*inst]) error {
		for i := 0; i < q.Len(); i++ {
			if err := checkInst(q.At(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkRing(p.frontQ); err != nil {
		return err
	}
	return checkRing(p.window)
}

// checkFrontEnd validates the fused delay line's structure against the
// instructions it holds: global age order, youth relative to the window, no
// squashed residue, decode-cursor discipline (the decoded prefix carries
// enter-dispatch stamps), and the two segment occupancies against their
// capacities. Enter-decode stamps are deliberately NOT required to be
// monotone along the ring: a fetch group formed right after an I-cache miss
// can carry a smaller stamp than the missing group ahead of it (decode gates
// on the head instruction only, so the inversion is harmless).
func (p *Pipeline) checkFrontEnd(youngest uint64) error {
	if p.decoded < 0 || p.decoded > p.frontQ.Len() {
		return fmt.Errorf("frontend decode cursor %d outside [0, %d]", p.decoded, p.frontQ.Len())
	}
	var prev uint64
	for i := 0; i < p.frontQ.Len(); i++ {
		in := p.frontQ.At(i)
		if in.d.Seq <= youngest && p.window.Len() > 0 {
			return fmt.Errorf("frontend holds seq %d not younger than window tail %d", in.d.Seq, youngest)
		}
		if i > 0 && in.d.Seq <= prev {
			return fmt.Errorf("frontend out of order at %d: %d after %d", i, in.d.Seq, prev)
		}
		prev = in.d.Seq
		if in.squashed {
			return fmt.Errorf("frontend holds squashed seq %d", in.d.Seq)
		}
		if i < p.decoded && in.enterWindow < in.enterDecode {
			return fmt.Errorf("decoded seq %d has enter-dispatch stamp %d before enter-decode %d",
				in.d.Seq, in.enterWindow, in.enterDecode)
		}
	}
	if fetchSeg := p.fetchSegLen(); fetchSeg > p.fetchCap || p.decoded > p.decodeCap {
		return fmt.Errorf("frontend occupancy fetch=%d/%d decode=%d/%d exceeds capacity",
			fetchSeg, p.fetchCap, p.decoded, p.decodeCap)
	}
	return nil
}
