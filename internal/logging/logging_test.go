package logging

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func sampleEvent() Event {
	return Event{
		Timestamp:  time.Date(2013, 10, 24, 11, 41, 48, 312e6, time.UTC),
		Source:     "asgard.log",
		SourceHost: "NICTA.local",
		Type:       TypeOperation,
		Tags:       []string{"push", "asg", "step4"},
		Fields:     map[string]string{"amiid": "ami-750c9e4f", "asgid": "pm--asg"},
		Message:    "Instance pm on i-7df34041 is ready for use.",
	}
}

func TestEventCloneIsDeep(t *testing.T) {
	e := sampleEvent()
	c := e.Clone()
	c.AddTag("changed")
	c.SetField("amiid", "changed")
	if len(e.Tags) != 3 || e.HasTag("changed") {
		t.Error("Clone aliases Tags")
	}
	if e.Field("amiid") != "ami-750c9e4f" || e.Fields["amiid"] != "ami-750c9e4f" {
		t.Error("Clone aliases Fields")
	}
	if c.Field("amiid") != "changed" || !c.HasTag("changed") {
		t.Errorf("the clone was not written: %v", c)
	}
}

func TestEventAddTagIdempotent(t *testing.T) {
	e := sampleEvent()
	e.AddTag("x")
	e.AddTag("x")
	n := 0
	for _, tag := range e.Tags {
		if tag == "x" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("AddTag added tag %d times", n)
	}
}

// TestEventAddTagLeavesSharedArray: a tag slice with spare capacity is
// shared by value copies, and AddTag on one copy must not write into it.
func TestEventAddTagLeavesSharedArray(t *testing.T) {
	e := sampleEvent()
	e.Tags = append(make([]string, 0, 8), e.Tags...)
	a, b := e, e
	a.AddTag("a")
	b.AddTag("b")
	if a.Tags[3] != "a" || b.Tags[3] != "b" || len(e.Tags[:cap(e.Tags)][3]) != 0 {
		t.Errorf("copies share a written tag array: %q %q", a.Tags, b.Tags)
	}
}

func TestEventSetFieldDoesNotMutateOriginal(t *testing.T) {
	e := sampleEvent()
	shared := e.Fields
	c := e
	c.SetField("instanceid", "i-123")
	c.SetField("owner", "x")
	if _, ok := e.Fields["instanceid"]; ok || e.Field("instanceid") != "" {
		t.Fatal("SetField mutated the original")
	}
	if len(shared) != 2 || e.Field("owner") != "" {
		t.Fatalf("SetField wrote the shared map: %v", shared)
	}
}

func TestEventSetFieldOnNilMap(t *testing.T) {
	e := Event{}
	e.SetField("k", "v")
	e.SetField("instanceid", "i-123")
	if e.Field("k") != "v" || e.Field("instanceid") != "i-123" {
		t.Fatal("SetField on zero event failed")
	}
}

// TestEventAnnotationInline: the annotator's values that have an inline
// form are set without touching Fields, and they marshal into @fields
// beside the published ones, winning on a clash.
func TestEventAnnotationInline(t *testing.T) {
	e := sampleEvent()
	e.Fields = map[string]string{"taskid": "t", "asgid": "stale", "activity": "stale"}
	shared := e.Fields
	note := NewNote("upd", "step3", "Update group")
	body := e.Message[len("Instance pm on "):]
	e.Tags = note.Tags(true)
	e.Annotate(note)
	e.SetField("processinstanceid", "t")
	e.SetField("instanceid", body[:len("i-7df34041")])
	e.SetField("asgid", "")
	e.SetField("reorder", ReorderHeld)
	want := map[string]string{"taskid": "t", "asgid": "", "activity": "Update group", "stepid": "step3",
		"processinstanceid": "t", "instanceid": "i-7df34041", "reorder": "held"}
	for k, v := range want {
		if got := e.Field(k); got != v {
			t.Errorf("Field(%q) = %q, want %q", k, got, v)
		}
	}
	if len(shared) != 3 || shared["asgid"] != "stale" || shared["activity"] != "stale" {
		t.Errorf("the published map was written: %v", shared)
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if !bytes.Contains(data, append([]byte(`"@fields":`), wantJSON...)) {
		t.Errorf("@fields not merged and sorted: %s", data)
	}
	if got := strings.Join(e.Tags, ","); got != "upd,step3,error" {
		t.Errorf("tags %q", got)
	}
}

// TestEventSize pins the size of an event value: every bus-buffer slot,
// reorder hold and logstore chunk slot holds one.
func TestEventSize(t *testing.T) {
	const maxEventSize = 176
	if got := unsafe.Sizeof(Event{}); got > maxEventSize {
		t.Errorf("an Event takes %d bytes, more than %d", got, maxEventSize)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := sampleEvent()
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"@timestamp", "@source", "@tags", "@fields", "@message", "@type", "@source_host"} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("marshaled event missing %s", key)
		}
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Message != e.Message || back.Fields["amiid"] != "ami-750c9e4f" {
		t.Fatal("round trip lost data")
	}
}

func TestEventJSONEmptyCollections(t *testing.T) {
	data, err := json.Marshal(Event{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"@tags":[]`)) {
		t.Error("nil tags should marshal as []")
	}
	if !bytes.Contains(data, []byte(`"@fields":{}`)) {
		t.Error("nil fields should marshal as {}")
	}
}

func TestEventStringContainsParts(t *testing.T) {
	s := sampleEvent().String()
	for _, want := range []string{"asgard", "step4", "amiid=ami-750c9e4f", "ready for use"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestBusDeliversToMatchingSubscribers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	all := b.Subscribe(8, nil)
	ops := b.Subscribe(8, TypeFilter(TypeOperation))
	b.Publish(Event{Type: TypeOperation, Message: "a"})
	b.Publish(Event{Type: TypeCloud, Message: "b"})

	if e := <-all.C; e.Message != "a" {
		t.Fatalf("all sub first event = %q", e.Message)
	}
	if e := <-all.C; e.Message != "b" {
		t.Fatalf("all sub second event = %q", e.Message)
	}
	if e := <-ops.C; e.Message != "a" {
		t.Fatalf("ops sub event = %q", e.Message)
	}
	select {
	case e := <-ops.C:
		t.Fatalf("ops sub received unexpected %q", e.Message)
	default:
	}
}

func TestBusDropsOldestWhenFull(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub := b.Subscribe(2, nil)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Message: string(rune('a' + i))})
	}
	// Only the two newest should remain.
	if e := <-sub.C; e.Message != "d" {
		t.Fatalf("first retained = %q, want d", e.Message)
	}
	if e := <-sub.C; e.Message != "e" {
		t.Fatalf("second retained = %q, want e", e.Message)
	}
	if got := b.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
}

func TestBusDroppedCountsAcrossSubscribers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	slow := b.Subscribe(1, nil)
	fast := b.Subscribe(16, nil)
	for i := 0; i < 4; i++ {
		b.Publish(Event{Message: "x"})
	}
	// The slow subscriber evicted 3; the fast one kept everything.
	if got := b.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	if len(fast.C) != 4 || len(slow.C) != 1 {
		t.Fatalf("buffers = fast:%d slow:%d, want 4/1", len(fast.C), len(slow.C))
	}
}

func TestBusPerSubscriberDropAccounting(t *testing.T) {
	b := NewBus()
	defer b.Close()
	slow := b.SubscribeNamed("pipeline", 1, nil)
	fast := b.SubscribeNamed("central", 16, nil)
	for i := 0; i < 4; i++ {
		b.Publish(Event{Message: "x"})
	}
	if slow.Name() != "pipeline" || fast.Name() != "central" {
		t.Fatalf("names = %q/%q", slow.Name(), fast.Name())
	}
	if got := slow.Dropped(); got != 3 {
		t.Fatalf("slow.Dropped() = %d, want 3", got)
	}
	if got := fast.Dropped(); got != 0 {
		t.Fatalf("fast.Dropped() = %d, want 0", got)
	}
	// The bus-wide count is the sum over subscribers.
	if got := b.Dropped(); got != 3 {
		t.Fatalf("bus Dropped() = %d, want 3", got)
	}
}

func TestBusStampsSequencePerSourceStream(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub := b.Subscribe(16, nil)
	// Two interleaved streams: sequence numbers are dense per
	// (Source, SourceHost, Type), not global.
	for i := 0; i < 3; i++ {
		b.Publish(Event{Source: "asgard.log", SourceHost: "h1", Type: TypeOperation})
		b.Publish(Event{Source: "asgard.log", SourceHost: "h2", Type: TypeOperation})
	}
	want := map[string]uint64{}
	for i := 0; i < 6; i++ {
		e := <-sub.C
		key := e.Source + "|" + e.SourceHost + "|" + e.Type
		if got := want[key] + 1; e.Seq != got {
			t.Fatalf("%s: seq = %d, want %d", key, e.Seq, got)
		}
		want[key]++
	}
	// A republished duplicate keeps its original number — that is what
	// makes duplicates detectable downstream.
	dup := Event{Source: "asgard.log", SourceHost: "h1", Type: TypeOperation, Seq: 2}
	b.Publish(dup)
	if e := <-sub.C; e.Seq != 2 {
		t.Fatalf("duplicate restamped to %d", e.Seq)
	}
}

func TestBusCancelClosesChannel(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub := b.Subscribe(1, nil)
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.C; ok {
		t.Fatal("channel not closed after Cancel")
	}
	b.Publish(Event{Message: "x"}) // must not panic
}

func TestBusCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1, nil)
	b.Close()
	b.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel open after bus close")
	}
	b.Publish(Event{Message: "x"}) // no-op, no panic
	if s := b.Subscribe(1, nil); s != nil {
		if _, ok := <-s.C; ok {
			t.Fatal("subscribe after close returned open channel")
		}
	}
}

func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	defer b.Close()
	var wg sync.WaitGroup
	sub := b.Subscribe(1024, nil)
	done := make(chan struct{})
	var received int
	go func() {
		defer close(done)
		for range sub.C {
			received++
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Publish(Event{Message: "m"})
			}
		}()
	}
	wg.Wait()
	sub.Cancel()
	<-done
	if received == 0 {
		t.Fatal("no events received")
	}
}

func TestMemorySink(t *testing.T) {
	s := NewMemorySink()
	s.Write(Event{Type: TypeOperation})
	s.Write(Event{Type: TypeCloud})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := s.Filter(func(e Event) bool { return e.Type == TypeCloud })
	if len(got) != 1 {
		t.Fatalf("Filter returned %d", len(got))
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestJSONSinkWritesLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	s.Write(sampleEvent())
	s.Write(sampleEvent())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
}

func TestMultiSinkAndFuncSink(t *testing.T) {
	var n int
	m := MultiSink{FuncSink(func(Event) { n++ }), FuncSink(func(Event) { n++ })}
	m.Write(Event{})
	if n != 2 {
		t.Fatalf("MultiSink delivered %d times", n)
	}
}

func TestFormatParseOperationLineRoundTrip(t *testing.T) {
	ts := time.Date(2013, 10, 24, 11, 41, 48, 312e6, time.UTC)
	line := FormatOperationLine(ts, "Pushing ami-1 into group g", "Instance ready.")
	gotTS, task, msg, ok := ParseOperationLine(line)
	if !ok {
		t.Fatal("ParseOperationLine failed")
	}
	if !gotTS.Equal(ts) {
		t.Errorf("ts = %v, want %v", gotTS, ts)
	}
	if task != "Pushing ami-1 into group g" {
		t.Errorf("task = %q", task)
	}
	if msg != "Instance ready." {
		t.Errorf("msg = %q", msg)
	}
}

func TestParseOperationLineNonConforming(t *testing.T) {
	cases := []string{
		"no brackets at all",
		"[not-a-timestamp] [Task:x] hi",
		"[2013-10-24 11:41:48,312 unclosed",
		"",
	}
	for _, line := range cases {
		if _, _, _, ok := ParseOperationLine(line); ok {
			t.Errorf("ParseOperationLine(%q) = ok", line)
		}
	}
}

func TestParseOperationLineWithoutTask(t *testing.T) {
	line := "[2013-10-24 11:41:48,312] plain message"
	_, task, msg, ok := ParseOperationLine(line)
	if !ok || task != "" || msg != "plain message" {
		t.Fatalf("got ok=%v task=%q msg=%q", ok, task, msg)
	}
}

func TestFormatParseProperty(t *testing.T) {
	// Property: any task/message without brackets round-trips.
	f := func(a, b string) bool {
		clean := func(s string) string {
			s = strings.Map(func(r rune) rune {
				if r == '[' || r == ']' || r == '\n' || r == '\r' {
					return -1
				}
				return r
			}, s)
			return strings.TrimSpace(s)
		}
		task, msg := clean(a), clean(b)
		if task == "" || msg == "" {
			return true
		}
		ts := time.Date(2020, 1, 2, 3, 4, 5, 678e6, time.UTC)
		_, gotTask, gotMsg, ok := ParseOperationLine(FormatOperationLine(ts, task, msg))
		return ok && gotTask == task && gotMsg == msg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Regression for the Publish drop-oldest retry loop: with a consumer
// concurrently draining a buffer-1 subscription, the old unbounded
// send/evict/retry cycle could spin while holding the bus lock. Publish
// now makes bounded progress per subscriber, and every published event is
// accounted for: received + still-buffered + dropped == published.
func TestBusPublishBoundedUnderConcurrentDrain(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1, nil)

	var received atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
			received.Add(1)
		}
	}()

	const published = 5000
	for i := 0; i < published; i++ {
		b.Publish(Event{Message: "x"})
	}
	b.Close() // closes sub.C; the drainer consumes whatever is buffered first

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish or drain stalled")
	}
	total := received.Load() + b.Dropped()
	if total != published {
		t.Fatalf("received %d + dropped %d = %d, want %d",
			received.Load(), b.Dropped(), total, published)
	}
}

// TestPublishDoesNotAllocate pins Bus.Publish at zero allocations once
// the event's sequence key exists: stamping Seq and CauseID, delivering
// to a filtered subscriber, and evicting from a full one copy the Event
// by value into channels that already exist.
func TestPublishDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	b := NewBus()
	defer b.Close()
	ops := b.Subscribe(8, TypeFilter(TypeOperation))
	full := b.Subscribe(1, nil) // never drained: every publish evicts
	ev := sampleEvent()
	b.Publish(ev) // creates the sequence key
	<-ops.C
	if n := testing.AllocsPerRun(400, func() {
		b.Publish(ev)
		<-ops.C
	}); n != 0 {
		t.Errorf("Publish allocates %.1f times on a warmed sequence key", n)
	}
	if full.Dropped() == 0 {
		t.Fatal("the full subscriber never evicted: the eviction path was not driven")
	}
}
