package prog

import (
	"selthrottle/internal/isa"
	"selthrottle/internal/xrand"
)

// CallStackDepth bounds the walker's call stack. The generator never nests
// calls deeper than the function count, but wrong-path execution can push
// spurious frames; the stack is a ring so overflow silently drops the oldest
// frame (a wrong-path artifact that squash erases anyway).
const CallStackDepth = 64

// WalkState is the complete architectural position of a walker: the block
// cursor, the global branch-outcome history, and the call stack. It is a
// value type so it can be checkpointed per conditional branch and restored
// exactly on misprediction recovery. Checkpoints live in the walker's pooled
// arena (see Walker), not inside DynInst: a WalkState is ~290 bytes, almost
// all of it the call-stack ring, and embedding it would put every dynamic
// instruction's record at several cache lines.
type WalkState struct {
	Block   int    // current block index
	Index   int    // next instruction within the block
	Ghist   uint64 // global history of actual conditional-branch outcomes
	BrCount uint64 // conditional branches executed (time base for noise)

	stack [CallStackDepth]int32
	head  int32 // ring start: index of the oldest valid frame
	sp    int32 // number of valid frames
}

// push adds a return-site block to the call stack. When the ring is full the
// oldest frame is overwritten in place — O(1), where the historical
// representation shifted the whole array down on every overflowing push.
func (s *WalkState) push(block int) {
	if s.sp == CallStackDepth {
		s.stack[s.head] = int32(block)
		s.head++
		if s.head == CallStackDepth {
			s.head = 0
		}
		return
	}
	i := s.head + s.sp
	if i >= CallStackDepth {
		i -= CallStackDepth
	}
	s.stack[i] = int32(block)
	s.sp++
}

// pop removes and returns the top return site; ok is false when empty.
func (s *WalkState) pop() (int, bool) {
	if s.sp == 0 {
		return 0, false
	}
	s.sp--
	i := s.head + s.sp
	if i >= CallStackDepth {
		i -= CallStackDepth
	}
	return int(s.stack[i]), true
}

// Depth returns the current call-stack depth (used by tests).
func (s *WalkState) Depth() int { return int(s.sp) }

// NoCkpt marks a DynInst that holds no checkpoint lease (every instruction
// except an unresolved conditional branch).
const NoCkpt = -1

// DynInst is one dynamic instruction produced by a walker. It carries
// everything the pipeline needs: the static instruction, its PC, the actual
// branch outcome / memory address, and (for conditional branches) a handle to
// a recovery checkpoint in the walker's arena. The struct is kept within two
// cache lines (the layout tests pin <= 128 bytes) because the pipeline copies
// it through the instruction pool, the completion wheel, and the recovery
// paths on every dynamic instruction.
//
// Field contract: Next always writes Seq, PC, St, BrID, and Ckpt. The
// remaining fields are defined only for the op classes that use them —
// Taken/TakenPC for control transfers, FallPC for branches and calls, Addr
// for memory ops, WrongPath by the pipeline at fetch — and hold stale values
// otherwise. Readers must gate on St.Op (the pipeline does throughout);
// skipping the dead stores keeps the per-instruction write half the size.
type DynInst struct {
	Seq     uint64
	PC      uint64
	TakenPC uint64 // PC of the taken target (branch/jump/call)
	FallPC  uint64 // PC of the fall-through successor
	Addr    uint64 // effective address (memory ops)

	St   isa.Static
	BrID int32 // Program.Branches index for conditional branches, else NoBranch

	// Ckpt is a handle into the walker's checkpoint arena, leased by Next
	// for conditional branches only. The checkpointed state is the walker
	// just after outcome generation but before steering; restoring it and
	// steering with the actual outcome resumes the correct path. The lease
	// is released by Recover, or by Walker.Release when the branch resolves
	// correctly or is squashed. NoCkpt for every other instruction.
	Ckpt int32

	Taken     bool // actual direction (conditional branches)
	WrongPath bool // set by the pipeline when fetched under a misprediction
}

// Walker generates the dynamic instruction stream of a program. The walker
// follows whatever directions the front end steers it in (predicted
// directions), so it naturally produces genuine wrong-path instruction
// streams; actual outcomes are reported on each branch for later resolution.
//
// # Checkpoint arena
//
// The walker owns a pooled arena of WalkState checkpoints. Next leases one
// slot per conditional branch and records the handle in DynInst.Ckpt; the
// lease returns to the free list when the branch no longer needs recovery
// state — Recover frees it after restoring, and the pipeline calls Release
// when a branch resolves correctly or is squashed. In steady state the arena
// footprint is bounded by the machine's in-flight branch capacity and the
// free list recycles slots without allocating; CkptStats probes this the way
// pipe.PoolStats probes the instruction pool.
//
// The lease marks the start of a speculation epoch: the pipeline opens a
// power-attribution epoch (pipe's epoch ledgers) for every conditional
// branch at the same moment Next issues its checkpoint handle, and a flush
// that consumes a checkpoint via Recover also folds the epochs the squashed
// wrong path opened. The two lifetimes deliberately diverge afterwards —
// a lease dies at resolution (the branch can no longer need recovery), while
// the branch's epoch must survive until its members have all committed,
// because an older unresolved branch can still squash them — which is why
// the epoch ring is the pipeline's own arena rather than a field of the
// checkpoint slot.
type Walker struct {
	prog *Program
	st   WalkState
	seq  uint64

	// pendingSteer is true between producing a conditional branch and the
	// caller's Steer call; Next panics if violated (harness bug).
	pendingSteer bool

	ckpts    []WalkState // checkpoint arena; handles index it
	ckptFree []int32     // free slot handles
	ckptHW   int         // high-water mark of concurrently leased slots

	// Stable-reference address memo, one slot per Program.MemRefs entry. A
	// stable (non-wild) site's address is a pure function of its seed and
	// the 64-branch epoch (BrCount>>6), and sites typically execute many
	// times per epoch, so Next and NextGroup cache the last (epoch, address)
	// pair per site instead of rehashing. Keys store epoch+1 so zero means
	// empty; the memo is exact (same pure function, same inputs).
	memoKey  []uint64
	memoAddr []uint64
}

// NewWalker returns a walker positioned at the program entry.
func NewWalker(p *Program) *Walker {
	w := &Walker{}
	w.Reset(p)
	return w
}

// Reset rebinds the walker to a program (possibly a different one) and
// rewinds it to the entry state, exactly as NewWalker would produce. A
// generated Program is immutable during walks, so one decoded program can be
// replayed by any number of resets without re-generation, and a pooled
// walker can serve many runs without allocation: the checkpoint arena's
// backing arrays survive the reset.
func (w *Walker) Reset(p *Program) {
	ckpts, free, hw := w.ckpts[:0], w.ckptFree[:0], w.ckptHW
	memoKey, memoAddr := w.memoKey, w.memoAddr
	if n := len(p.MemRefs); cap(memoKey) < n {
		memoKey = make([]uint64, n)
		memoAddr = make([]uint64, n)
	} else {
		memoKey = memoKey[:n]
		memoAddr = memoAddr[:n]
		clear(memoKey)
	}
	*w = Walker{
		prog:     p,
		st:       WalkState{Block: p.Entry, Ghist: xrand.Hash64(p.Profile.Seed)},
		ckpts:    ckpts,
		ckptFree: free,
		ckptHW:   hw,
		memoKey:  memoKey,
		memoAddr: memoAddr,
	}
}

// State returns a copy of the current walker state (for tests/diagnostics).
func (w *Walker) State() WalkState { return w.st }

// Seq returns the sequence number the next instruction will receive.
func (w *Walker) Seq() uint64 { return w.seq }

// leaseCkpt hands out an arena slot, recycling the free list before growing.
func (w *Walker) leaseCkpt() int32 {
	var id int32
	if n := len(w.ckptFree) - 1; n >= 0 {
		id = w.ckptFree[n]
		w.ckptFree = w.ckptFree[:n]
	} else {
		w.ckpts = append(w.ckpts, WalkState{})
		id = int32(len(w.ckpts) - 1)
	}
	if leased := len(w.ckpts) - len(w.ckptFree); leased > w.ckptHW {
		w.ckptHW = leased
	}
	return id
}

// saveCkpt records the walker's current state into arena slot id. Only the
// live region of the call-stack ring is copied (normalized to head 0): a
// WalkState is ~300 bytes of which the ring is ~260, while typical call
// depths are a handful of frames, so the full-struct copy this replaces was
// the single most expensive store of the outcome path. The ring's start
// position is not architectural — push/pop behaviour depends only on the
// frame sequence and sp — so the normalized copy restores exactly.
func (w *Walker) saveCkpt(id int32) {
	c := &w.ckpts[id]
	c.Block, c.Index = w.st.Block, w.st.Index
	c.Ghist, c.BrCount = w.st.Ghist, w.st.BrCount
	c.head, c.sp = 0, w.st.sp
	n := int(w.st.sp)
	if h := int(w.st.head); h+n <= CallStackDepth {
		copy(c.stack[:n], w.st.stack[h:h+n])
	} else {
		k := CallStackDepth - h
		copy(c.stack[:k], w.st.stack[h:])
		copy(c.stack[k:n], w.st.stack[:n-k])
	}
}

// restoreCkpt rewinds the walker to arena slot id (the inverse of saveCkpt;
// frames beyond sp are left stale, which push/pop can never observe).
func (w *Walker) restoreCkpt(id int32) {
	c := &w.ckpts[id]
	w.st.Block, w.st.Index = c.Block, c.Index
	w.st.Ghist, w.st.BrCount = c.Ghist, c.BrCount
	w.st.head, w.st.sp = 0, c.sp
	copy(w.st.stack[:c.sp], c.stack[:c.sp])
}

// stableAddr returns the address of stable reference id under the current
// 64-branch epoch, consulting the per-site memo first (see the memo fields).
func (w *Walker) stableAddr(mr *MemRef, id int32) uint64 {
	epoch := w.st.BrCount>>6 + 1
	if w.memoKey[id] == epoch {
		return w.memoAddr[id]
	}
	a := mr.Base + mr.fold(xrand.Hash2(mr.Seed, w.st.BrCount>>6))
	w.memoKey[id], w.memoAddr[id] = epoch, a
	return a
}

// Release returns a branch's checkpoint lease to the arena free list and
// clears the handle. It is a no-op for instructions holding no lease, so the
// pipeline can call it unconditionally on squash and on correct resolution.
func (w *Walker) Release(d *DynInst) {
	if d.Ckpt == NoCkpt {
		return
	}
	w.ckptFree = append(w.ckptFree, d.Ckpt)
	d.Ckpt = NoCkpt
}

// CkptStats reports the checkpoint arena's behaviour: currently leased
// slots, total slots ever created, and the high-water mark of concurrent
// leases. After warmup the capacity must stop growing — leak tests use this
// probe exactly like pipe.PoolStats.
func (w *Walker) CkptStats() (leased, capacity, highWater int) {
	return len(w.ckpts) - len(w.ckptFree), len(w.ckpts), w.ckptHW
}

// Outcome computes the actual direction of branch br. It is a pure function
// of (branch, global history, branch count), so the walker can replay it
// exactly from a checkpoint. The unlearnable component is keyed on the
// branch-occurrence counter and deep history bits — information no
// realistically sized predictor can capture — and fires with probability
// NoiseP; the learnable component is a random boolean function of the
// branch's low DetBits history bits, which tables learn once trained
// (bigger tables alias less and reach deeper — the paper's Figure 7 effect).
// Loop back-edges have no learnable component: they are taken until the
// noise term fires the exit, giving geometric trip counts with mean
// 1/NoiseP.
//
// This is the float-threshold reference form; the walker uses the
// integer-threshold outcome method below, which is provably identical (see
// the threshold field docs on Branch) and regression-tested against this.
func Outcome(br *Branch, ghist, brCount uint64) bool {
	sel := xrand.Hash3(br.Seed, ghist>>24, brCount)
	if float64(sel>>40)/float64(1<<24) < br.NoiseP {
		// Unlearnable: biased coin drawn from the same hash's low bits.
		return float64(sel&0xFFFFFF)/float64(1<<24) < br.Bias
	}
	mask := uint64(1)<<uint(br.DetBits) - 1
	det := xrand.Hash2(br.Seed^0xD5AA, ghist&mask)
	detFrac := float64(det&0xFFFFFF) / float64(1<<24)
	if br.LoopBack {
		// Learnable exit: in a recurring history context the same
		// iteration exits, so trained predictors anticipate it.
		return !(detFrac < br.TripInv)
	}
	// Learnable outcome: a fixed pseudo-random function of the low history
	// bits whose per-context taken-rate is DetBias (0.5 for ordinary
	// branches; the gate frequency for hard-diamond gates).
	return detFrac < br.DetBias
}

// outcome is the integer-threshold form of Outcome: the same two hashes, but
// the four float64 divisions and compares become integer compares against
// the thresholds finalize precomputed. Bit-identical to Outcome by the
// exactness argument on the threshold fields.
func (br *Branch) outcome(ghist, brCount uint64) bool {
	sel := xrand.Hash3(br.Seed, ghist>>24, brCount)
	if uint32(sel>>40) < br.noiseThr {
		return uint32(sel&0xFFFFFF) < br.biasThr
	}
	det := uint32(xrand.Hash2(br.Seed^0xD5AA, ghist&br.histMask) & 0xFFFFFF)
	if br.LoopBack {
		return det >= br.tripThr
	}
	return det < br.detBiasThr
}

// Next produces the next dynamic instruction into out. For conditional
// branches the walker pauses: the caller must invoke Steer with the
// *predicted* direction before calling Next again. All other control flow
// steers itself.
//
// Next reads the program's flat blockMeta/code/memIDs tables and the
// integer outcome thresholds.
//
//st:hotpath
func (w *Walker) Next(out *DynInst) {
	if w.pendingSteer {
		panic("prog: Next called with a pending Steer")
	}
	p := w.prog
	m := &p.meta[w.st.Block]
	// Advance through (possibly empty-remainder) blocks until an
	// instruction is available. Fall-through blocks chain silently.
	for w.st.Index >= int(m.n) {
		w.st.Block = int(m.succ0)
		w.st.Index = 0
		m = &p.meta[w.st.Block]
	}
	idx := w.st.Index
	off := int(m.off) + idx
	st := p.code[off]
	out.Seq = w.seq
	out.PC = m.base + uint64(idx)*InstBytes
	out.St = st
	out.BrID = NoBranch
	out.Ckpt = NoCkpt
	w.seq++
	w.st.Index++

	switch {
	case st.Op == isa.OpBranch:
		br := &p.Branches[m.brID]
		taken := br.outcome(w.st.Ghist, w.st.BrCount)
		w.st.BrCount++
		out.BrID = m.brID
		out.Taken = taken
		out.TakenPC = m.takenBase
		out.FallPC = m.fallBase
		// History records the *actual* outcome: outcome generation is
		// architecturally consistent along whichever path is followed.
		w.st.Ghist = w.st.Ghist<<1 | b2u(taken)
		id := w.leaseCkpt()
		w.saveCkpt(id)
		out.Ckpt = id
		w.pendingSteer = true
	case st.Op == isa.OpJump:
		out.TakenPC = m.takenBase
		out.Taken = true
		w.st.Block = int(m.succ1)
		w.st.Index = 0
	case st.Op == isa.OpCall:
		out.TakenPC = m.takenBase
		out.FallPC = m.fallBase
		out.Taken = true
		w.st.push(int(m.succ0))
		w.st.Block = int(m.succ1)
		w.st.Index = 0
	case st.Op == isa.OpReturn:
		target, ok := w.st.pop()
		if !ok {
			// Wrong-path artifact (or top-of-program): restart at entry.
			target = p.Entry
		}
		out.TakenPC = p.meta[target].base
		out.Taken = true
		w.st.Block = target
		w.st.Index = 0
	case st.Op.IsMem():
		if id := p.memIDs[off]; id >= 0 {
			mr := &p.MemRefs[id]
			if mr.Wild {
				// No temporal locality, and keyed on the full history
				// so a wrong path's reconvergent loads do NOT compute
				// the correct path's future addresses (register state
				// differs across paths in real programs). Wild loads
				// miss often, and on the wrong path they are pure
				// cache pollution — the effect behind the paper's
				// oracle-fetch speedup.
				out.Addr = mr.Base + mr.fold(xrand.Hash3(mr.Seed, w.st.Ghist, w.st.BrCount))
			} else {
				// Slowly moving working set: the address advances
				// only every 64 branches, so repeated executions hit.
				out.Addr = w.stableAddr(mr, id)
			}
		}
	}

	// If a fall-through block is exhausted, chain to its successor so the
	// next PC is correct for fetch-group formation.
	if !w.pendingSteer {
		m = &p.meta[w.st.Block]
		for w.st.Index >= int(m.n) && m.term == isa.OpNop {
			if m.succ0 == NoBlock {
				break
			}
			w.st.Block = int(m.succ0)
			w.st.Index = 0
			m = &p.meta[w.st.Block]
		}
	}
}

// NextGroup produces a batch of consecutive dynamic instructions into out and
// returns how many were written (at least 1 for a non-empty out). The batch
// ends when out is full or directly after a control-transfer instruction
// (branch, jump, call, return), so the control op — if any — is always the
// last element. A terminating conditional branch leaves the walker pending
// exactly like Next: the caller must Steer before the next NextGroup/Next.
//
// The produced stream is bit-identical to the same number of Next calls (the
// randomized fastpath tests pin this); batching exists so a fetch stage can
// amortize the per-call overhead — the pending-steer check, the block
// metadata loads, and the fall-through chase — over a whole straight-line
// run, which is what makes fused fetch groups (internal/pipe) pay off.
//
//st:hotpath
func (w *Walker) NextGroup(out []DynInst) int {
	if len(out) == 0 {
		return 0
	}
	if w.pendingSteer {
		panic("prog: NextGroup called with a pending Steer")
	}
	p := w.prog
	m := &p.meta[w.st.Block]
	n := 0
	for n < len(out) {
		// Head chase: advance through exhausted blocks. Mid-batch this
		// replaces Next's per-instruction fall-through chain — an exhausted
		// block reachable here always has an OpNop terminator (a control
		// terminator would have steered the walker away), so the two
		// traversals visit exactly the same blocks.
		for w.st.Index >= int(m.n) {
			w.st.Block = int(m.succ0)
			w.st.Index = 0
			m = &p.meta[w.st.Block]
		}
		idx := w.st.Index
		off := int(m.off) + idx
		st := p.code[off]
		o := &out[n]
		o.Seq = w.seq
		o.PC = m.base + uint64(idx)*InstBytes
		o.St = st
		o.BrID = NoBranch
		o.Ckpt = NoCkpt
		w.seq++
		w.st.Index++
		n++

		switch {
		case st.Op == isa.OpBranch:
			br := &p.Branches[m.brID]
			taken := br.outcome(w.st.Ghist, w.st.BrCount)
			w.st.BrCount++
			o.BrID = m.brID
			o.Taken = taken
			o.TakenPC = m.takenBase
			o.FallPC = m.fallBase
			w.st.Ghist = w.st.Ghist<<1 | b2u(taken)
			id := w.leaseCkpt()
			w.saveCkpt(id)
			o.Ckpt = id
			w.pendingSteer = true
			return n
		case st.Op == isa.OpJump:
			o.TakenPC = m.takenBase
			o.Taken = true
			w.st.Block = int(m.succ1)
			w.st.Index = 0
			w.chainFallThrough()
			return n
		case st.Op == isa.OpCall:
			o.TakenPC = m.takenBase
			o.FallPC = m.fallBase
			o.Taken = true
			w.st.push(int(m.succ0))
			w.st.Block = int(m.succ1)
			w.st.Index = 0
			w.chainFallThrough()
			return n
		case st.Op == isa.OpReturn:
			target, ok := w.st.pop()
			if !ok {
				target = p.Entry
			}
			o.TakenPC = p.meta[target].base
			o.Taken = true
			w.st.Block = target
			w.st.Index = 0
			w.chainFallThrough()
			return n
		case st.Op.IsMem():
			if id := p.memIDs[off]; id >= 0 {
				mr := &p.MemRefs[id]
				if mr.Wild {
					o.Addr = mr.Base + mr.fold(xrand.Hash3(mr.Seed, w.st.Ghist, w.st.BrCount))
				} else {
					o.Addr = w.stableAddr(mr, id)
				}
			}
		}
	}
	// Buffer filled on a non-control instruction: resolve any fall-through
	// chain so the walker parks in the same state a Next sequence would
	// (NextPC and State observe it).
	w.chainFallThrough()
	return n
}

// chainFallThrough advances the walker through exhausted fall-through blocks
// (Next's per-instruction tail chain) so the next PC is correct for
// fetch-group formation.
func (w *Walker) chainFallThrough() {
	m := &w.prog.meta[w.st.Block]
	for w.st.Index >= int(m.n) && m.term == isa.OpNop {
		if m.succ0 == NoBlock {
			return
		}
		w.st.Block = int(m.succ0)
		w.st.Index = 0
		m = &w.prog.meta[w.st.Block]
	}
}

// Steer resolves a pending conditional branch with the direction the front
// end *predicts* (which may be wrong — the walker then produces the wrong
// path until Recover is called).
func (w *Walker) Steer(taken bool) {
	if !w.pendingSteer {
		panic("prog: Steer without a pending branch")
	}
	blk := &w.prog.Blocks[w.st.Block]
	// The branch was the last instruction of its block.
	if taken {
		w.st.Block = blk.Succ[1]
	} else {
		w.st.Block = blk.Succ[0]
	}
	w.st.Index = 0
	w.pendingSteer = false
}

// Recover rewinds the walker to a branch's checkpoint, releases the lease,
// and steers down the actual path: the fetch stream continues on the correct
// path exactly as if the branch had been predicted correctly.
func (w *Walker) Recover(d *DynInst) {
	if d.BrID == NoBranch {
		panic("prog: Recover on a non-branch")
	}
	if d.Ckpt == NoCkpt {
		panic("prog: Recover on a branch whose checkpoint was released")
	}
	w.restoreCkpt(d.Ckpt)
	w.Release(d)
	w.pendingSteer = true
	w.Steer(d.Taken)
}

// NextPC reports the PC the walker will fetch next (for I-cache access
// grouping). It resolves pending fall-through chains conservatively.
func (w *Walker) NextPC() uint64 {
	m := &w.prog.meta[w.st.Block]
	idx := w.st.Index
	for idx >= int(m.n) {
		if m.succ0 == NoBlock {
			return m.base
		}
		m = &w.prog.meta[m.succ0]
		idx = 0
	}
	return m.base + uint64(idx)*InstBytes
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
