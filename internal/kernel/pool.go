package kernel

import (
	"sync"
	"sync/atomic"
)

// The Message and payload freelists. Message structs are the nodes of every
// process's MPSC inbox; payload buffers hold the kernel's defensive copy of
// each sent message. Before pooling, each send allocated one node plus one
// payload copy — the largest remaining allocation on the IPC path once the
// event-process scratch pages were pooled.
//
// Nodes are recycled through msgPool at the two points the kernel
// relinquishes ownership of a Message: a drop (failed receiver-side checks,
// stale port ownership, queue overflow, process exit) and a delivery (the
// payload moves into the Delivery; only the node returns here).
//
// Payload buffers flow through their own pool, payloadPool, and complete
// the cycle the ROADMAP called out as the last per-send allocation on the
// hot path:
//
//   - a send that must copy (Port.Send, un-Owned batch entries) draws its
//     copy buffer from the pool;
//   - a dropped message returns its buffer immediately (freeMsg);
//   - a delivered message hands its buffer to the Delivery, which owns it
//     until the receiver calls Delivery.Release — the trusted event loops
//     (internal/evloop) release every delivery after its handler returns,
//     so on the demux→worker path the same buffers circulate send after
//     send. Receivers that never Release (clients, workers) simply let the
//     buffer go to the garbage collector, exactly the pre-lifecycle
//     behaviour.
//
// Label references are cleared when nodes are pooled: labels are immutable
// and shared, and keeping them reachable from pooled nodes would pin them.

// maxPooledPayload bounds the payload capacity a recycled buffer may
// retain, so one huge message cannot pin a huge buffer in the pool.
const maxPooledPayload = 64 << 10

var msgPool = sync.Pool{New: func() any { return new(Message) }}

// payloadPool recycles payload buffers. Entries are *[]byte so Put does not
// allocate an interface box per call, and the header travels with its
// buffer (Message.buf, Delivery.buf) from Get back to Put, so a recycled
// buffer costs no allocation at all. Every pooled slice has length 0 and
// capacity ≤ maxPooledPayload.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// payloadsDrawn and payloadsReturned count pool traffic. A receiver that
// Recvs inline and never Releases lets its buffer fall to the garbage
// collector — legal, but on a hot path it reopens the per-send allocation
// this pool closed. The counters make that visible: across a closed loop of
// round trips, returned must keep pace with drawn (PayloadPoolStats; the
// leak regression tests pin the idd and client paths with it).
var payloadsDrawn, payloadsReturned atomic.Uint64

// PoolStats is a snapshot of payload-pool traffic.
type PoolStats struct {
	Drawn    uint64 // buffers handed out for send-side copies
	Returned uint64 // buffers recycled (message dropped or Delivery released)
}

// PayloadPoolStats reports cumulative payload-pool traffic. Outstanding
// buffers = Drawn - Returned; a steadily growing gap across a closed loop
// of round trips is a Release leak.
func PayloadPoolStats() PoolStats {
	// Read returned first: a concurrent draw between the two loads then
	// inflates the gap (a false alarm reads as outstanding work, never as a
	// phantom return).
	r := payloadsReturned.Load()
	return PoolStats{Drawn: payloadsDrawn.Load(), Returned: r}
}

// copyIn makes m's payload a copy of data in a pooled buffer, whose
// capacity (possibly zero, for a fresh pool entry) append grows like any
// other slice's.
func (m *Message) copyIn(data []byte) {
	payloadsDrawn.Add(1)
	m.buf = payloadPool.Get().(*[]byte)
	m.Data = append((*m.buf)[:0], data...)
}

// putPayload recycles payload buffer b, with its pool header bp, for a
// future send's copy. A buffer that did not come from the pool (an Owned
// batch entry) gets a new header; oversized buffers are dropped, and so
// are nil ones that came with no header.
func putPayload(bp *[]byte, b []byte) {
	if cap(b) > maxPooledPayload || bp == nil && b == nil {
		return
	}
	if bp == nil {
		bp = new([]byte)
	}
	payloadsReturned.Add(1)
	*bp = b[:0]
	payloadPool.Put(bp)
}

// getMsg returns a Message node. All fields are garbage; the caller must
// assign every one of them before publishing the node.
func getMsg() *Message {
	return msgPool.Get().(*Message)
}

// releaseMsg recycles a delivered node. Its payload has escaped into a
// Delivery, which owns those bytes until Release.
func releaseMsg(m *Message) {
	m.Data, m.buf = nil, nil
	scrubMsg(m)
}

// freeMsg recycles a dropped node and its payload buffer.
func freeMsg(m *Message) {
	putPayload(m.buf, m.Data)
	m.Data, m.buf = nil, nil
	scrubMsg(m)
}

func scrubMsg(m *Message) {
	m.Port = 0
	m.es, m.ds, m.dr, m.v = nil, nil, nil, nil
	m.next = nil
	msgPool.Put(m)
}
