// Package logging defines the structured log event model shared by every
// component of the POD-Diagnosis stack, together with an in-process log bus
// and sinks.
//
// Events follow the Logstash v1 wire shape used in the paper (§IV): a raw
// @message plus @source, @tags, @fields, @timestamp, @source_host and
// @type. The local log processor enriches raw operation-log events with
// process-context tags and fields before forwarding them to the central
// log storage.
package logging

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Well-known event types (the @type field).
const (
	TypeOperation   = "asgard"      // operation node (upgrade orchestrator) logs
	TypeCloud       = "cloud"       // simulated cloud infrastructure logs
	TypeAssertion   = "assertion"   // assertion evaluation results
	TypeConformance = "conformance" // conformance checking results
	TypeDiagnosis   = "diagnosis"   // error diagnosis traces
	TypeTimer       = "timer"       // timer-originated trigger records
)

// Event is a single structured log record.
type Event struct {
	// Timestamp is when the underlying line was produced, in clock time.
	Timestamp time.Time `json:"@timestamp"`
	// Source is the originating log file, e.g. "asgard.log".
	Source string `json:"@source"`
	// SourceHost is the host that produced the line.
	SourceHost string `json:"@source_host"`
	// Type is the event family, one of the Type* constants.
	Type string `json:"@type"`
	// Tags carries process-context annotations such as the activity name,
	// step id, and conformance verdicts.
	Tags []string `json:"@tags"`
	// Fields carries extracted key/value context, e.g. amiid, asgid,
	// instanceid, processinstanceid, stepid.
	Fields map[string]string `json:"@fields"`
	// Message is the original raw log line.
	Message string `json:"@message"`
	// Seq is a monotone per-source sequence number stamped by the Bus the
	// first time the event is published (a duplicate republication keeps
	// the original number, which is what makes duplicates detectable).
	// Zero means the event never crossed a bus. The sequencing key is
	// (Source, SourceHost, Type) — one Logstash agent per log file, with
	// the type folded in so type-filtered subscribers see dense streams.
	Seq uint64 `json:"@seq,omitempty"`
	// CauseID is a bus-unique causality identifier stamped the first time
	// the event is published (a duplicate republication keeps the original
	// id, so every copy of one underlying line shares one cause). The
	// flight recorder uses it to anchor evidence chains at raw log events
	// across the reorder buffer and chaos-injected duplication.
	CauseID uint64 `json:"@cause,omitempty"`
}

// Clone returns a deep copy of the event, so that pipeline stages can
// annotate without aliasing the caller's slices and maps.
func (e Event) Clone() Event { return e.CloneWithRoom(0) }

// CloneWithRoom is Clone with room for extraTags more tags, so a stage
// that annotates its copy allocates the tag slice once instead of
// growing it per AddTag.
func (e Event) CloneWithRoom(extraTags int) Event {
	out := e
	if e.Tags != nil || extraTags > 0 {
		out.Tags = make([]string, len(e.Tags), len(e.Tags)+extraTags)
		copy(out.Tags, e.Tags)
	}
	if e.Fields != nil {
		out.Fields = make(map[string]string, len(e.Fields))
		for k, v := range e.Fields {
			out.Fields[k] = v
		}
	}
	return out
}

// WithTag returns a copy of the event with tag appended (if not present).
func (e Event) WithTag(tag string) Event {
	if e.HasTag(tag) {
		return e
	}
	out := e.Clone()
	out.Tags = append(out.Tags, tag)
	return out
}

// WithField returns a copy of the event with the field set.
func (e Event) WithField(key, value string) Event {
	out := e.Clone()
	if out.Fields == nil {
		out.Fields = make(map[string]string, 1)
	}
	out.Fields[key] = value
	return out
}

// SetField sets the field in place. It is the hot-path counterpart of
// WithField: after one Clone, a pipeline stage may mutate its private copy
// without paying a further full-event copy per annotation.
func (e *Event) SetField(key, value string) {
	if e.Fields == nil {
		e.Fields = make(map[string]string, 8)
	}
	e.Fields[key] = value
}

// AddTag appends the tag in place if not already present — the hot-path
// counterpart of WithTag, for use on a Clone the caller owns.
func (e *Event) AddTag(tag string) {
	if !e.HasTag(tag) {
		e.Tags = append(e.Tags, tag)
	}
}

// HasTag reports whether the event carries tag.
func (e Event) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Field returns the value of the named field, or "" when absent.
func (e Event) Field(key string) string { return e.Fields[key] }

// MarshalJSON implements json.Marshaler with deterministic field ordering
// for the @fields map (sorted keys), which keeps golden-file tests stable.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event // avoid recursion
	a := alias(e)
	if a.Tags == nil {
		a.Tags = []string{}
	}
	if a.Fields == nil {
		a.Fields = map[string]string{}
	}
	return json.Marshal(a)
}

// String renders the event compactly for debugging: timestamp, type, tags
// and message.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Timestamp.Format("2006-01-02 15:04:05,000"))
	b.WriteString(" [")
	b.WriteString(e.Type)
	b.WriteString("]")
	if len(e.Tags) > 0 {
		fmt.Fprintf(&b, " %v", e.Tags)
	}
	if len(e.Fields) > 0 {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%s", k, e.Fields[k])
		}
		b.WriteString("}")
	}
	b.WriteString(" ")
	b.WriteString(e.Message)
	return b.String()
}
