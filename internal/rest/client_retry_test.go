package rest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/federate"
)

// flaky500 serves a 500 for the first n hits of each path, then succeeds.
type flaky500 struct {
	fails int32
	hits  int32
}

func (f *flaky500) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := atomic.AddInt32(&f.hits, 1)
	if n <= atomic.LoadInt32(&f.fails) {
		http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`["check-a"]`))
}

func fastRetry(t *testing.T) {
	t.Helper()
	old := retryDelay
	retryDelay = time.Millisecond
	t.Cleanup(func() { retryDelay = old })
}

func TestClientRetriesGETOnceOn5xx(t *testing.T) {
	fastRetry(t)
	h := &flaky500{fails: 1}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	checks, err := c.Checks(context.Background())
	if err != nil {
		t.Fatalf("GET after one 500: %v", err)
	}
	if len(checks) != 1 || checks[0] != "check-a" {
		t.Fatalf("checks = %v", checks)
	}
	if h.hits != 2 {
		t.Fatalf("server hits = %d, want 2 (original + one retry)", h.hits)
	}
}

func TestClientRetriesGETOnlyOnce(t *testing.T) {
	fastRetry(t)
	h := &flaky500{fails: 10}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Checks(context.Background()); err == nil {
		t.Fatal("persistent 500 did not surface")
	}
	if h.hits != 2 {
		t.Fatalf("server hits = %d, want exactly 2", h.hits)
	}
}

func TestClientDoesNotRetryPOST(t *testing.T) {
	fastRetry(t)
	h := &flaky500{fails: 1}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	_, err := c.CreateOperation(context.Background(), federate.WatchRequest{})
	if err == nil {
		t.Fatal("POST 500 did not surface")
	}
	if h.hits != 1 {
		t.Fatalf("server hits = %d; a non-idempotent POST was retried", h.hits)
	}
}

func TestClientRetriesConnectionRefused(t *testing.T) {
	fastRetry(t)
	// A listener that is closed immediately: both attempts are refused, but
	// exactly two connection attempts must be made.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	c := NewClient(url, &http.Client{Timeout: time.Second})
	err := c.get(context.Background(), "/healthz", nil)
	if err == nil {
		t.Fatal("refused connection did not surface")
	}
	if !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientHonoursContextDeadline(t *testing.T) {
	fastRetry(t)
	blocked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer func() { close(blocked); srv.Close() }()
	c := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.get(ctx, "/slow", nil)
	if err == nil {
		t.Fatal("deadline did not surface")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request outlived its deadline by %v", elapsed)
	}
	// A request whose context is already dead is not retried at all.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := c.get(dead, "/healthz", nil); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// countingClock counts Sleep calls so tests can prove the retry backoff
// runs on the injected clock, not a bare time.After.
type countingClock struct {
	clock.Clock
	sleeps atomic.Int32
}

func (c *countingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.sleeps.Add(1)
	return c.Clock.Sleep(ctx, d)
}

func TestClientRetryBackoffUsesInjectedClock(t *testing.T) {
	fastRetry(t)
	h := &flaky500{fails: 1}
	srv := httptest.NewServer(h)
	defer srv.Close()
	clk := &countingClock{Clock: clock.Wall}
	c := NewClient(srv.URL, srv.Client(), WithClientClock(clk))
	if _, err := c.Checks(context.Background()); err != nil {
		t.Fatalf("GET after one 500: %v", err)
	}
	if got := clk.sleeps.Load(); got != 1 {
		t.Fatalf("injected clock slept %d times, want 1 (the retry backoff)", got)
	}
	// A cancelled context aborts the backoff through the same clock.
	atomic.StoreInt32(&h.hits, 0)
	atomic.StoreInt32(&h.fails, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.get(ctx, "/healthz", nil); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
