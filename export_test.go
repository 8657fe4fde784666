package salam

import "gosalam/kernels"

// Test-only accessors for session poisoning and pool internals.

// SetTestHookReconfigure installs a hook that runs inside begin between
// retuning and the warm rewind, so tests can simulate a panic while the
// session's dynamic state is mid-rewrite.
func (s *Session) SetTestHookReconfigure(fn func()) { s.testHookReconfigure = fn }

// IsBroken exposes the poisoning flag.
func (s *Session) IsBroken() bool { return s.broken }

// ReleaseForTest returns a session to the pool through the real release
// path (including its broken-session guard).
func (p *SessionPool) ReleaseForTest(s *Session) { p.release(s) }

// AcquireForTest pulls a session from the pool through the real acquire
// path.
func (p *SessionPool) AcquireForTest(k *kernels.Kernel, opts RunOpts) (*Session, error) {
	return p.acquire(k, opts)
}

// IdleForTest counts pooled idle sessions.
func (p *SessionPool) IdleForTest() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		n += len(ss)
	}
	return n
}

// ResumeWithin is Resume that gives up with an error once the accelerator
// has run past maxCycle, so a test of a run that may never finish fails
// instead of hanging.
func (s *Session) ResumeWithin(opts RunOpts, maxCycle uint64) (*Result, error) {
	return s.finish(opts, func() bool { return s.acc.Cycles > maxCycle })
}
