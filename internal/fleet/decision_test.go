package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lmi/internal/serve"
)

// gateWriter blocks its first Write until released, simulating a
// wedged log destination while the serving path keeps offering.
type gateWriter struct {
	entered chan struct{} // closed when the first Write begins
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func newGateWriter() *gateWriter {
	return &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.buf.Write(p)
}

func dec(seq int) Decision {
	return Decision{Seq: seq, Key: "chaos/lmi", Seed: SeedString(uint64(seq)), Status: "ok"}
}

// TestSinkOverflowDropsDeterministically is the satellite contract:
// with the drain goroutine wedged inside a Write, exactly the buffer's
// worth of further records is accepted; every record beyond that is
// refused immediately, counted, and never blocks the caller.
func TestSinkOverflowDropsDeterministically(t *testing.T) {
	const buffer, overflow = 8, 95
	g := newGateWriter()
	s := NewSink(g, buffer)

	// Park the drain goroutine inside the first record's Write, so the
	// channel is empty and the subsequent accounting is exact.
	if !s.Offer(dec(0)) {
		t.Fatal("first record refused by an empty sink")
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("drain goroutine never reached the writer")
	}

	for i := 0; i < buffer; i++ {
		if !s.Offer(dec(1 + i)) {
			t.Fatalf("record %d refused with %d slots free", 1+i, buffer-i)
		}
	}
	start := time.Now()
	for i := 0; i < overflow; i++ {
		if s.Offer(dec(1 + buffer + i)) {
			t.Fatalf("overflow record %d accepted past a full buffer", i)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d refused offers took %v; Offer must not block", overflow, el)
	}
	if st := s.Stats(); st.Dropped != overflow {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, overflow)
	}

	close(g.release)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Written != 1+buffer || st.Dropped != overflow {
		t.Fatalf("stats = %+v, want written=%d dropped=%d", st, 1+buffer, overflow)
	}

	// The accepted records drained as JSONL in acceptance order.
	sc := bufio.NewScanner(&g.buf)
	for want := 0; want <= buffer; want++ {
		if !sc.Scan() {
			t.Fatalf("log ends at record %d of %d", want, 1+buffer)
		}
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("record %d: %v", want, err)
		}
		if d.Seq != want {
			t.Fatalf("record order broken: got seq %d, want %d", d.Seq, want)
		}
	}
	if sc.Scan() {
		t.Fatalf("unexpected extra record: %s", sc.Text())
	}
}

func TestSinkOfferAfterCloseCountsDrop(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, 4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if s.Offer(dec(0)) {
		t.Fatal("closed sink accepted a record")
	}
	if st := s.Stats(); st.Written != 0 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want written=0 dropped=1", st)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestSinkSurfacesWriteError(t *testing.T) {
	s := NewSink(failWriter{}, 4)
	s.Offer(dec(0))
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("Close = %v, want the writer's error", err)
	}
	if st := s.Stats(); st.Written != 0 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want the failed write counted as dropped", st)
	}
}

func TestDecisionFromRetrySchedule(t *testing.T) {
	retry := serve.RetryConfig{}.WithDefaults()
	res := serve.Result{
		Req:      serve.Request{Mechanism: "lmi", Kind: "control", Seed: 0xABC},
		Status:   serve.StatusOK,
		Attempts: 3,
	}
	d := decisionFrom(7, res, 1, serve.BreakerClosed, retry, "compiled")
	if d.Seq != 7 || d.Shard != 1 || d.Tier != "compiled" {
		t.Fatalf("decision misassembled: %+v", d)
	}
	if len(d.RetryNS) != 2 {
		t.Fatalf("3 attempts must log 2 backoffs, got %v", d.RetryNS)
	}
	for a, ns := range d.RetryNS {
		if want := int64(retry.Delay(res.Req.Seed, a)); ns != want {
			t.Fatalf("backoff %d = %d, want the deterministic schedule %d", a, ns, want)
		}
	}
}
