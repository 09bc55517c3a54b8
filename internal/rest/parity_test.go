package rest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs/flight"
)

// call issues one request and returns the status and raw body.
func call(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// seedEvidence records a fixed evidence chain on an operation's flight
// ring, so two managers hold byte-identical timelines.
func seedEvidence(m *core.Manager, opID string) {
	op := m.Flight().Op(opID)
	base := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)
	op.Record(flight.Entry{Kind: flight.KindLogEvent, At: base.Add(time.Second), Seq: 1, Message: "update requested"})
	op.Record(flight.Entry{Kind: flight.KindDetection, At: base.Add(2 * time.Second), Parents: []uint64{1}, Message: "capacity low"})
	op.Record(flight.Entry{Kind: flight.KindCause, At: base.Add(3 * time.Second), Parents: []uint64{2}, Message: "key pair changed"})
}

// TestOperationsParityMemberAndFront runs one request sequence against a
// member server and against a front server whose single in-process
// member holds the same sessions: every answer must match in status and
// body, because both are served by the same handlers.
func TestOperationsParityMemberAndFront(t *testing.T) {
	member := newOpsEnv(t)
	lm, err := federate.NewLocalMember(federate.LocalConfig{
		ID: "solo",
		NewManager: func() (*core.Manager, error) {
			m, err := core.NewManager(core.ManagerConfig{Cloud: member.cloud, Bus: member.bus})
			if err == nil {
				m.Start()
			}
			return m, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	kill := sync.OnceFunc(lm.Kill)
	t.Cleanup(kill)
	front := federate.NewFront(member.clk, federate.Config{})
	if err := lm.JoinFront(front); err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(NewServer(nil, nil, nil, WithFront(front)))
	t.Cleanup(frontSrv.Close)

	const create = `{"id":"par-op","expect":{"asgName":"par--asg","clusterSize":2},"instanceIds":["par-task"]}`
	steps := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/operations", create, http.StatusCreated},
		{"GET", "/operations", "", http.StatusOK},
		{"GET", "/operations/par-op", "", http.StatusOK},
		{"GET", "/operations/par-op/detections", "", http.StatusOK},
		{"GET", "/operations/par-op/timeline", "", http.StatusOK},
		{"GET", "/operations/par-op/timeline?kind=detection", "", http.StatusOK},
		{"GET", "/operations/par-op/timeline?kind=detection,diagnosis.cause", "", http.StatusOK},
		{"GET", "/operations/par-op/timeline?kind=log.event&kind=diagnosis.cause", "", http.StatusOK},
		{"GET", "/operations/par-op/timeline?kind=bogus", "", http.StatusBadRequest},
		{"DELETE", "/operations/par-op", "", http.StatusOK},
		{"GET", "/operations/par-op", "", http.StatusNotFound},
		{"GET", "/operations/nope/detections", "", http.StatusNotFound},
		{"GET", "/operations/nope/timeline?kind=bogus", "", http.StatusNotFound},
		{"DELETE", "/operations/nope", "", http.StatusNotFound},
	}
	for i, st := range steps {
		name := st.method + " " + st.path
		gotM, bodyM := call(t, st.method, member.base+st.path, st.body)
		gotF, bodyF := call(t, st.method, frontSrv.URL+st.path, st.body)
		if gotM != st.want || gotF != st.want {
			t.Errorf("%s: status member %d, front %d, want %d", name, gotM, gotF, st.want)
		}
		if !bytes.Equal(bodyM, bodyF) {
			t.Errorf("%s: bodies differ\n member: %s front:  %s", name, bodyM, bodyF)
		}
		if i == 0 {
			seedEvidence(member.mgr, "par-op")
			seedEvidence(lm.Manager(), "par-op")
		}
	}

	// Front only: an owner that stops answering is a 502, not a 404.
	if got, body := call(t, "POST", frontSrv.URL+"/operations", `{"id":"par-dead","expect":{"asgName":"dead--asg","clusterSize":2}}`); got != http.StatusCreated {
		t.Fatalf("create on the front: %d %s", got, body)
	}
	kill()
	for _, st := range []struct{ method, path string }{
		{"GET", "/operations/par-dead"},
		{"GET", "/operations/par-dead/detections"},
		{"GET", "/operations/par-dead/timeline?kind=detection"},
		{"DELETE", "/operations/par-dead"},
	} {
		if got, body := call(t, st.method, frontSrv.URL+st.path, ""); got != http.StatusBadGateway {
			t.Errorf("%s %s with the owner down: %d %s, want 502", st.method, st.path, got, body)
		}
	}
}
