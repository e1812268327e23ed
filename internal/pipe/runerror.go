package pipe

// Run-failure semantics.
//
// The simulator's terminal failure modes — a deadlocked machine, a wrong-path
// instruction reaching commit, an internal invariant violation, an injected
// fault — historically ended the process with a bare panic. That is the right
// behaviour for a research script and the wrong one for a service: a sweep
// grid must survive one bad point. RunE converts every terminal condition
// into a typed *RunError carrying a diagnostic snapshot of the machine at the
// moment of failure (cycle, policy, occupancies, epoch-ledger state, and —
// for a wrong-path commit — the offending instruction's full provenance), so
// supervisors can isolate, classify, and report failures without parsing
// panic strings.
//
// Deep invariant panics (ring over/underflow, epoch-ring corruption, walker
// misuse) deliberately stay as panics at their call sites: they are cheap,
// they cannot happen on a correct machine, and RunE's recover turns each one
// into an ErrPanic RunError with the panicking stack attached. The cycle loop
// itself never pays for error plumbing.
//
// Cooperative cancellation: Cancel sets an atomic flag that RunE polls every
// cancelCheckCycles cycles — one predictable counter decrement per cycle on
// the hot path, an atomic load only at the amortization boundary — so a
// context deadline can stop a runaway point mid-run without instrumenting the
// stages themselves.

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// RunErrorKind classifies a terminal run failure.
type RunErrorKind uint8

// Run failure kinds.
const (
	// ErrDeadlock: no commit progress for Config.StuckCycles cycles.
	ErrDeadlock RunErrorKind = iota + 1
	// ErrWrongPathCommit: a wrong-path instruction reached commit (a
	// simulator bug; Inst carries the popped instruction's provenance).
	ErrWrongPathCommit
	// ErrCanceled: the run was stopped by Cancel (typically a context
	// deadline or explicit cancellation upstream; Cause carries the
	// context's error when the supervisor supplied one).
	ErrCanceled
	// ErrPanic: a panic was recovered mid-run (invariant violation or an
	// injected fault); Cause carries the panic value and Stack the
	// panicking stack.
	ErrPanic
)

// String names the kind for reports.
func (k RunErrorKind) String() string {
	switch k {
	case ErrDeadlock:
		return "deadlock"
	case ErrWrongPathCommit:
		return "wrong-path-commit"
	case ErrCanceled:
		return "canceled"
	case ErrPanic:
		return "panic"
	}
	return "unknown"
}

// InstSnapshot is the provenance of one dynamic instruction, captured into a
// RunError at the moment of failure. FetchCycle identifies the fetch group
// the instruction arrived in (all members of a group share it); Epoch is the
// speculation-epoch ring slot it was bound to at fetch; Ckpt is the walker
// checkpoint-arena lease a conditional branch holds (prog.NoCkpt otherwise).
type InstSnapshot struct {
	Seq       uint64
	PC        uint64
	Op        string
	WrongPath bool
	PredTaken bool
	Taken     bool

	FetchCycle  int64 // fetch-group identity: when the group was fetched
	WindowCycle int64 // when dispatched into the window
	IssueCycle  int64 // when issued (0 if never)

	Epoch int32 // speculation-epoch ring slot bound at fetch
	Ckpt  int32 // walker checkpoint lease (prog.NoCkpt for non-branches)
}

func (s *InstSnapshot) String() string {
	return fmt.Sprintf("seq=%d pc=%x op=%s wrongPath=%v predTaken=%v taken=%v fetch@%d window@%d issue@%d epoch=%d ckpt=%d",
		s.Seq, s.PC, s.Op, s.WrongPath, s.PredTaken, s.Taken,
		s.FetchCycle, s.WindowCycle, s.IssueCycle, s.Epoch, s.Ckpt)
}

// RunError is a terminal run failure with a diagnostic snapshot of the
// machine state at the moment of failure. It is the error type RunE returns
// and the panic payload Run raises, so both the error-returning and the
// legacy panicking path deliver the same post-mortem.
type RunError struct {
	Kind RunErrorKind

	// Machine snapshot at failure.
	Cycle     int64
	Policy    string // throttle policy name
	Committed uint64
	Target    uint64 // the commit target RunE was driving toward
	Window    int    // instruction-window occupancy
	FetchQ    int    // fetched-but-undecoded front-end occupancy
	DecodeQ   int    // decoded-but-undispatched front-end occupancy
	LSQ       int    // load/store-queue occupancy
	// Epoch-ledger state (see ledger.go): open epochs, ring capacity, and
	// the high-water mark of concurrently open epochs.
	EpochOpen int
	EpochCap  int
	EpochHW   int

	StuckLimit int // deadlock threshold in force (ErrDeadlock)

	// Inst is the offending instruction's provenance (ErrWrongPathCommit).
	Inst *InstSnapshot

	// Cause is the underlying error: the recovered panic value (ErrPanic)
	// or the supervising context's error (ErrCanceled). Unwrap exposes it,
	// so errors.Is(err, context.DeadlineExceeded) works through a RunError.
	Cause error

	// Stack is the panicking goroutine's stack (ErrPanic only).
	Stack []byte
}

// Error formats the failure with its snapshot. The deadlock and wrong-path
// messages keep the historical panic prefixes.
func (e *RunError) Error() string {
	snap := fmt.Sprintf("cycle=%d committed=%d/%d policy=%q window=%d fetchQ=%d decodeQ=%d lsq=%d epochs=%d/%d (hw %d)",
		e.Cycle, e.Committed, e.Target, e.Policy, e.Window, e.FetchQ, e.DecodeQ, e.LSQ,
		e.EpochOpen, e.EpochCap, e.EpochHW)
	switch e.Kind {
	case ErrDeadlock:
		return fmt.Sprintf("pipe: no commit in %d cycles (%s)", e.StuckLimit, snap)
	case ErrWrongPathCommit:
		return fmt.Sprintf("pipe: wrong-path instruction committed: %s (%s)", e.Inst, snap)
	case ErrCanceled:
		if e.Cause != nil {
			return fmt.Sprintf("pipe: run canceled: %v (%s)", e.Cause, snap)
		}
		return fmt.Sprintf("pipe: run canceled (%s)", snap)
	case ErrPanic:
		return fmt.Sprintf("pipe: run panicked: %v (%s)", e.Cause, snap)
	}
	return fmt.Sprintf("pipe: run failed (%s)", snap)
}

// Unwrap exposes the underlying cause, so errors.Is/As see through the
// snapshot wrapper (context errors for cancellation, injected-fault errors
// for fault-injection runs).
func (e *RunError) Unwrap() error { return e.Cause }

// retryable is the classification interface fault payloads may implement
// (internal/faultinject's transient faults do).
type retryable interface{ Retryable() bool }

// Retryable reports whether re-running the point could plausibly succeed.
// The simulator is deterministic, so every organic failure (deadlock,
// wrong-path commit, invariant violation) is terminal: a retry replays it bit
// for bit. Only a cause that explicitly declares itself transient — an
// injected fault armed to fire once — makes a failure retryable.
func (e *RunError) Retryable() bool {
	var r retryable
	if errors.As(e.Cause, &r) {
		return r.Retryable()
	}
	return false
}

// AsRunError extracts a *RunError from err (directly or wrapped).
func AsRunError(err error) (*RunError, bool) {
	var re *RunError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// newRunError captures the machine snapshot into a fresh RunError.
func (p *Pipeline) newRunError(kind RunErrorKind, cause error) *RunError {
	open, capacity, hw := p.EpochStats()
	return &RunError{
		Kind:       kind,
		Cycle:      p.cycle,
		Policy:     p.ctrl.Policy().Name,
		Committed:  p.Stats.Committed,
		Target:     p.runTarget,
		Window:     p.window.Len(),
		FetchQ:     p.fetchSegLen(),
		DecodeQ:    p.decoded,
		LSQ:        p.lsqUsed,
		EpochOpen:  open,
		EpochCap:   capacity,
		EpochHW:    hw,
		StuckLimit: p.cfg.stuckLimit(),
		Cause:      cause,
	}
}

// snapshotInst captures an instruction's provenance for a RunError.
func snapshotInst(in *inst) *InstSnapshot {
	return &InstSnapshot{
		Seq:         in.d.Seq,
		PC:          in.d.PC,
		Op:          in.d.St.Op.String(),
		WrongPath:   in.d.WrongPath,
		PredTaken:   in.predTaken,
		Taken:       in.d.Taken,
		FetchCycle:  in.fetchCycle,
		WindowCycle: in.windowCycle,
		IssueCycle:  in.issueCycle,
		Epoch:       in.epoch,
		Ckpt:        in.d.Ckpt,
	}
}

// wrongPathCommitError builds the typed failure for a wrong-path instruction
// reaching commit. The check fires after the instruction has already been
// popped from the window, so the snapshot is the only surviving record of the
// instruction — it carries the full provenance (fetch group via FetchCycle,
// epoch binding, checkpoint lease) needed to diagnose the squash or recovery
// bug post-mortem.
func (p *Pipeline) wrongPathCommitError(in *inst) *RunError {
	e := p.newRunError(ErrWrongPathCommit, nil)
	e.Inst = snapshotInst(in)
	return e
}

// recoverRunError converts a recovered panic value into a RunError. An
// already-typed *RunError (the wrong-path-commit check) passes through
// unchanged; anything else — an invariant panic deep in the machine, an
// injected fault, a walker misuse — is wrapped as ErrPanic with the machine
// snapshot and the panicking stack. recoverRunError runs inside the deferred
// recover, while the panicking frames are still on the stack, so debug.Stack
// captures the true origin.
func (p *Pipeline) recoverRunError(r any) *RunError {
	if re, ok := r.(*RunError); ok {
		return re
	}
	cause, ok := r.(error)
	if !ok {
		cause = fmt.Errorf("%v", r)
	}
	e := p.newRunError(ErrPanic, cause)
	e.Stack = debug.Stack()
	return e
}

// ------------------------------------------------------- fault injection --

// FaultStage identifies the pipeline stage a fault hook fires in.
type FaultStage uint8

// Fault hook stages. StageStep fires once at the top of every cycle, before
// the stages run; the per-stage hooks fire at the top of the corresponding
// stage function.
const (
	StageStep FaultStage = iota
	StageFetch
	StageDecode
	StageDispatch
	StageIssue
	StageComplete
	StageCommit
	NumFaultStages
)

// String names the stage for fault messages.
func (s FaultStage) String() string {
	switch s {
	case StageStep:
		return "step"
	case StageFetch:
		return "fetch"
	case StageDecode:
		return "decode"
	case StageDispatch:
		return "dispatch"
	case StageIssue:
		return "issue"
	case StageComplete:
		return "complete"
	case StageCommit:
		return "commit"
	}
	return "unknown"
}

// FaultAction is a fault hook's instruction to the pipeline.
type FaultAction uint8

// Fault actions.
const (
	// FaultNone: no action this invocation.
	FaultNone FaultAction = iota
	// FaultWedgeFetch: hold fetch this cycle (the hook re-issues it every
	// cycle to wedge the machine into the deadlock detector; a one-shot
	// wedge is a single fetch bubble).
	FaultWedgeFetch
)

// FaultHook is the fault-injection test hook behind Config.Fault
// (internal/faultinject implements it). When armed, the pipeline invokes
// OnStage at the top of every cycle (StageStep) and of every stage function;
// the hook may panic (injected failure — RunE converts it to an ErrPanic
// RunError), sleep (artificial slowness, driving per-point deadlines), or
// return an action. Healthy configurations leave Config.Fault nil and pay a
// single hoisted bool test per call site.
//
// Implementations must be comparable (pointer receivers suffice): Config
// remains a comparable value with the hook installed.
type FaultHook interface {
	OnStage(stage FaultStage, cycle int64) FaultAction
}

// wedgedResumeAt is the fetch gate a FaultWedgeFetch action applies: far
// enough out to hold fetch indefinitely while the hook keeps re-issuing it,
// without risking int64 overflow in cycle comparisons.
const wedgedResumeAt = int64(1) << 62

// stageFault invokes the armed fault hook for one stage and applies its
// action. Callers guard with p.faultArmed so the nil common case costs one
// predictable branch.
func (p *Pipeline) stageFault(s FaultStage) {
	switch p.cfg.Fault.OnStage(s, p.cycle) {
	case FaultWedgeFetch:
		p.fetchResumeAt = wedgedResumeAt
	}
}
