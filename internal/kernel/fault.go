package kernel

import "time"

// Send-path fault injection. When a FaultInjector is installed
// (WithFaultInjector), every built message consults it once — after the
// Figure 4 sender-side checks and payload copy, before queue admission —
// so an injected fault is indistinguishable from the kernel's own silent
// drops (§4): the send succeeds, the message vanishes, is duplicated, or
// arrives late. With no injector installed the cost is one nil check per
// send.

// injectOne applies one fault decision to a built single-send message
// bound for owner. It reports whether the injector consumed the message
// (dropped or delayed); the caller must not admit or publish it then. A
// duplicate is enqueued immediately alongside the original.
func (s *System) injectOne(owner *Process, msg *Message) (consumed bool) {
	class := portClass(owner.name)
	d := s.fault.Decide(class)
	if d.Dup {
		s.enqueueInjected(owner, class, cloneMsg(msg))
	}
	switch {
	case d.Drop:
		s.dropMsg(msg, class)
		return true
	case d.Delay > 0:
		s.delayMsg(owner, class, msg, d.Delay)
		return true
	}
	return false
}

// injectBatch applies per-message fault decisions to a built batch,
// filtering msgs in place and returning the surviving prefix. Duplicates
// and delayed re-admissions are published as their own inbox pushes, so a
// faulted batch may interleave with other senders — deliberate disorder,
// bounded by the same unreliability contract as everything else.
func (s *System) injectBatch(owner *Process, msgs []*Message) []*Message {
	class := portClass(owner.name)
	kept := msgs[:0]
	for _, m := range msgs {
		d := s.fault.Decide(class)
		if d.Dup {
			s.enqueueInjected(owner, class, cloneMsg(m))
		}
		switch {
		case d.Drop:
			s.dropMsg(m, class)
		case d.Delay > 0:
			s.delayMsg(owner, class, m, d.Delay)
		default:
			kept = append(kept, m)
		}
	}
	return kept
}

// cloneMsg builds an independent copy of a built message: fresh pooled
// payload, shared (immutable) label pointers.
func cloneMsg(m *Message) *Message {
	c := getMsg()
	c.Port = m.Port
	c.copyIn(m.Data)
	c.es, c.ds, c.dr, c.v = m.es, m.ds, m.dr, m.v
	c.next = nil
	return c
}

// enqueueInjected admits and publishes an injector-created or
// injector-delayed message, or drops it if the receiver has died or
// filled up in the meantime.
func (s *System) enqueueInjected(owner *Process, class string, msg *Message) {
	if owner.admit(1) == 0 {
		s.dropMsg(msg, class)
		return
	}
	owner.publish(msg, msg)
}

// delayMsg re-admits msg after d. The timer goroutine holds no locks when
// it fires; publish takes only the receiver's own mutex to unpark it
// (lock-ordering rule 3), so delivery from a timer is as safe as from any
// sender. delayed lets harnesses quiesce before asserting pool balance.
func (s *System) delayMsg(owner *Process, class string, msg *Message, d time.Duration) {
	s.delayed.Add(1)
	time.AfterFunc(d, func() {
		defer s.delayed.Add(-1)
		s.enqueueInjected(owner, class, msg)
	})
}
