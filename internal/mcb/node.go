package mcb

import "fmt"

// Node is the processor-side interface of the MCB model: everything an
// algorithm needs to run in lock-step on a network. Both *Proc (a processor
// of a real engine run) and *VProc (a processor of a simulated network,
// Section 2) implement it, so every algorithm in this repository can run
// natively or under simulation without change.
type Node interface {
	// ID returns the processor index in [0, P()).
	ID() int
	// P returns the number of processors.
	P() int
	// K returns the number of broadcast channels.
	K() int
	// WriteRead broadcasts on writeCh and reads readCh in the same cycle.
	WriteRead(writeCh int, m Message, readCh int) (Message, bool)
	// Write broadcasts on writeCh without reading this cycle.
	Write(writeCh int, m Message)
	// Read reads readCh; ok=false reports silence.
	Read(readCh int) (Message, bool)
	// Idle spends one cycle without touching any channel.
	Idle()
	// IdleN spends n cycles idle.
	IdleN(n int)
	// Abortf fails the whole computation with a formatted error.
	Abortf(format string, args ...any)
	// AccountAux adjusts the auxiliary-memory estimate by delta words.
	AccountAux(delta int64)
	// Phase marks the start of a named accounting phase (see Proc.Phase).
	// Implementations without phase accounting treat it as a no-op.
	Phase(name string)
	// Cycles returns the number of cycles this processor has participated
	// in so far.
	Cycles() int64
}

var (
	_ Node = (*Proc)(nil)
	_ Node = (*VProc)(nil)
)

// IdleN spends n virtual cycles idle. n <= 0 is a no-op.
func (v *VProc) IdleN(n int) {
	for i := 0; i < n; i++ {
		v.Idle()
	}
}

// Abortf fails the computation. The structured vAbort panic unwinds the
// virtual processor; the host driver surfaces it through the engine's typed
// taxonomy as an *AbortError carrying this virtual processor's id.
func (v *VProc) Abortf(format string, args ...any) {
	panic(&vAbort{vproc: v.id, msg: fmt.Sprintf(format, args...)})
}

// AccountAux is a no-op under simulation (the host engine owns the
// accounting and cannot attribute virtual memory).
func (v *VProc) AccountAux(delta int64) {}

// Phase is a no-op under simulation: the host engine owns the accounting,
// and phases of the simulated network would misattribute the host's cycles.
func (v *VProc) Phase(name string) {}

// Cycles returns the number of virtual cycles this processor has
// participated in.
func (v *VProc) Cycles() int64 { return v.vcycles }

// IdleCoalescer wraps a Node so that a run of consecutive Idle (and IdleN)
// calls is issued as one IdleN, flushed before the next Write, Read,
// WriteRead, Phase or Cycles. Under the sharded engine an idle stretch then
// costs its processor one submission and one sleep instead of one resume per
// cycle; the cycle-by-cycle op sequence, and so every Report, is unchanged.
// Call Flush before using the wrapped Node directly again or returning.
type IdleCoalescer struct {
	Node
	pending int
}

// Idle defers one idle cycle to the next flush.
func (c *IdleCoalescer) Idle() { c.pending++ }

// IdleN defers n idle cycles to the next flush.
func (c *IdleCoalescer) IdleN(n int) { c.pending += max(n, 0) }

// Flush issues the pending idle cycles as one IdleN.
func (c *IdleCoalescer) Flush() {
	if c.pending > 0 {
		c.Node.IdleN(c.pending)
		c.pending = 0
	}
}

// WriteRead flushes, then forwards.
func (c *IdleCoalescer) WriteRead(writeCh int, m Message, readCh int) (Message, bool) {
	c.Flush()
	return c.Node.WriteRead(writeCh, m, readCh)
}

// Write flushes, then forwards.
func (c *IdleCoalescer) Write(writeCh int, m Message) {
	c.Flush()
	c.Node.Write(writeCh, m)
}

// Read flushes, then forwards.
func (c *IdleCoalescer) Read(readCh int) (Message, bool) {
	c.Flush()
	return c.Node.Read(readCh)
}

// Phase flushes, so the marker rides on the op that follows the idle run.
func (c *IdleCoalescer) Phase(name string) {
	c.Flush()
	c.Node.Phase(name)
}

// Cycles flushes, so the count includes the pending idle cycles.
func (c *IdleCoalescer) Cycles() int64 {
	c.Flush()
	return c.Node.Cycles()
}
