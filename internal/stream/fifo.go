package stream

// fifo is the resident engine's per-session queue: one per in-edge for
// the arrived, unconsumed heads, and one at the source for granted
// payloads awaiting firing.  It is a power-of-two ring, so a dequeue is a
// head-index advance — O(1) whatever the backlog — and pop zeroes the
// consumed slots, so the queue never retains a payload it has handed
// out.  The ring allocates on first push and doubles only when full: its
// capacity tracks the deepest backlog the queue has held, which the
// credit window (heads) or the ingest window (source) bounds.
type fifo[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest element
	n    int // number of queued elements
}

// fifoMinCap is a fresh ring's capacity: small, because most sessions
// are short and a ring only grows under backlog.
const fifoMinCap = 4

func (q *fifo[T]) len() int { return q.n }

// at returns the j-th oldest element (0 = head); j < len().
func (q *fifo[T]) at(j int) *T { return &q.buf[(q.head+j)&(len(q.buf)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pushAll appends vs in order with at most two copies (the run may wrap).
func (q *fifo[T]) pushAll(vs []T) {
	if q.n+len(vs) > len(q.buf) {
		q.grow(q.n + len(vs))
	}
	tail := (q.head + q.n) & (len(q.buf) - 1)
	c := copy(q.buf[tail:], vs)
	copy(q.buf, vs[c:])
	q.n += len(vs)
}

// pop consumes the k oldest elements, zeroing their slots; k <= len().
func (q *fifo[T]) pop(k int) {
	var zero T
	for j := 0; j < k; j++ {
		*q.at(j) = zero
	}
	q.head = (q.head + k) & (len(q.buf) - 1)
	q.n -= k
}

// grow reallocates to the smallest power of two >= need (and >=
// fifoMinCap), unwrapping the queued elements to the front.
func (q *fifo[T]) grow(need int) {
	c := len(q.buf)
	if c < fifoMinCap {
		c = fifoMinCap
	}
	for c < need {
		c <<= 1
	}
	buf := make([]T, c)
	if q.n > 0 {
		k := copy(buf, q.buf[q.head:min(q.head+q.n, len(q.buf))])
		copy(buf[k:], q.buf[:q.n-k])
	}
	q.buf, q.head = buf, 0
}
