// Package logging defines the structured log event model shared by every
// component of the POD-Diagnosis stack, together with an in-process log bus
// and sinks.
//
// Events follow the Logstash v1 wire shape used in the paper (§IV): a raw
// @message plus @source, @tags, @fields, @timestamp, @source_host and
// @type. The local log processor enriches raw operation-log events with
// process-context tags and fields before forwarding them to the central
// log storage.
//
// An event is a value that is copied freely — into bus buffers, reorder
// holds and store chunks — so nothing an event points at is ever written
// through it. Fields is the map the event was published with, Tags the
// slice, and a Note the process context the compiled model made for a
// node; all three are shared and read-only. The annotator's fields ride
// inline beside them (see Event), and SetField and AddTag replace what
// they would change rather than write into it. Read fields with Field:
// it sees both the map and the inline annotation.
package logging

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"
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

// Values of the "reorder" field, which the reorder buffer's delivery
// stamps on a line that did not arrive in sequence.
const (
	// ReorderHeld marks a line that waited for its predecessors.
	ReorderHeld = "held"
	// ReorderGapBefore marks a line whose predecessors were declared lost.
	ReorderGapBefore = "gap-before"
)

// Event is a single structured log record.
//
// The fields the local log processor annotates a line with are kept
// inline rather than in a copy of Fields: the extracted values as offsets
// into Message, the step id and activity as a pointer to the node's Note,
// the process instance id as a reference to the "taskid" field, and the
// reorder stamp as an index. Field, SetField, MarshalJSON and String
// merge the two sources; on a key both hold, the annotation wins. A value
// that has no inline form is written into a fresh copy of Fields instead.
// Message is read-only once an event is annotated, since the offsets
// index into it.
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
	// step id, and conformance verdicts. Read-only: the slice may be
	// shared with other events and with the process model; AddTag
	// replaces it.
	Tags []string `json:"@tags"`
	// Fields carries the key/value context the event was published with,
	// e.g. taskid. Read-only: the map may be shared with other events;
	// SetField replaces it. It does not hold the annotated fields — read
	// them with Field.
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

	ann annotation
}

// The annotator's keys, in the order of their presence bits.
const (
	keyInstance = iota // instanceid
	keyAMI             // amiid
	keyASG             // asgid
	keyNum             // num
	keyTotal           // total
	keyProcess         // processinstanceid: the "taskid" field's value
	keyStep            // stepid: the note's
	keyActivity        // activity: the note's
	keyReorder         // reorder: one of reorderValues
	nKeys
)

// nSpans counts the keys before keyProcess, whose values are substrings of
// Message.
const nSpans = keyProcess

// annKeys names the annotator's keys by index.
var annKeys = [nKeys]string{"instanceid", "amiid", "asgid", "num", "total",
	"processinstanceid", "stepid", "activity", "reorder"}

// reorderValues are the reorder stamps that have an inline form.
var reorderValues = [...]string{ReorderHeld, ReorderGapBefore}

// annotation is the inline part of an event's fields.
type annotation struct {
	note    *Note
	spans   [nSpans]span
	has     uint16 // bit k: annKeys[k] is present
	reorder uint8  // index into reorderValues
}

// span locates a value in Message.
type span struct{ from, to uint16 }

// maxSpanned is the longest Message whose substrings are kept as offsets.
const maxSpanned = 1<<16 - 1

// annKey returns the index of an annotator key, or -1 for any other key.
func annKey(key string) int {
	switch key {
	case "instanceid":
		return keyInstance
	case "amiid":
		return keyAMI
	case "asgid":
		return keyASG
	case "num":
		return keyNum
	case "total":
		return keyTotal
	case "processinstanceid":
		return keyProcess
	case "stepid":
		return keyStep
	case "activity":
		return keyActivity
	case "reorder":
		return keyReorder
	}
	return -1
}

// Note is the process context of one model node: the step id and activity
// name every line classified to it carries, and the tags it gets. The
// compiled process model makes one per node; events point at it. A nil
// Note is the context of a line no activity matched.
type Note struct {
	stepID, activity string
	tags             [2][]string // [0] for a plain line, [1] for a known-error line
}

// errorOnly is the tag slice of a known-error line no activity matched.
var errorOnly = []string{"error"}

// NewNote returns the context of the node with the given id, step id ("" for
// none) and activity name.
func NewNote(id, stepID, activity string) *Note {
	plain := []string{id}
	if stepID != "" && stepID != id {
		plain = append(plain, stepID)
	}
	withError := plain
	if !slices.Contains(plain, "error") {
		withError = append(plain[:len(plain):len(plain)], "error")
	}
	return &Note{stepID: stepID, activity: activity, tags: [2][]string{plain, withError}}
}

// Tags returns the tags of a line classified to the note's node, with
// "error" last when the line also matched a known-error pattern. The
// slice is shared and read-only.
func (n *Note) Tags(isError bool) []string {
	switch {
	case n != nil && isError:
		return n.tags[1]
	case n != nil:
		return n.tags[0]
	case isError:
		return errorOnly
	}
	return nil
}

// Clone returns a copy of the event. Nothing it shares with the original
// is written through either: Fields, Tags and the note are read-only, and
// SetField and AddTag replace them.
func (e Event) Clone() Event { return e }

// Annotate sets the event's "activity" field, and its "stepid" field when
// the node has a step id, to those of note; the values are not copied.
func (e *Event) Annotate(n *Note) {
	if old := e.ann.note; old != nil && n.stepID == "" && e.ann.has&(1<<keyStep) != 0 {
		// The step id the old note gave stays.
		e.setMapped(keyStep, "stepid", old.stepID)
	}
	e.ann.note = n
	e.ann.has |= 1 << keyActivity
	if n.stepID != "" {
		e.ann.has |= 1 << keyStep
	}
}

// SetField sets the field. An annotator key whose value has an inline form
// is set without allocating; any other write copies Fields once and
// writes the copy, leaving the map the event was published with as it is.
func (e *Event) SetField(key, value string) {
	k := annKey(key)
	if k >= 0 && e.setInline(k, value) {
		e.ann.has |= 1 << k
		return
	}
	e.setMapped(k, key, value)
}

// setInline stores value as annotator key k's inline form, reporting
// false when it has none.
func (e *Event) setInline(k int, value string) bool {
	switch {
	case k < nSpans:
		s, ok := spanIn(e.Message, value)
		if ok {
			e.ann.spans[k] = s
		}
		return ok
	case k == keyProcess:
		return value == e.Fields["taskid"]
	case k == keyStep:
		return e.ann.note != nil && value == e.ann.note.stepID
	case k == keyActivity:
		return e.ann.note != nil && value == e.ann.note.activity
	default:
		for i, v := range reorderValues {
			if v == value {
				e.ann.reorder = uint8(i)
				return true
			}
		}
		return false
	}
}

// setMapped writes the field into a fresh copy of Fields; k is key's
// annotator index, or -1.
func (e *Event) setMapped(k int, key, value string) {
	m := make(map[string]string, len(e.Fields)+2)
	for fk, fv := range e.Fields {
		m[fk] = fv
	}
	if key == "taskid" && e.ann.has&(1<<keyProcess) != 0 {
		// The process instance id referred to the old task id; keep it.
		m[annKeys[keyProcess]] = e.Fields["taskid"]
		e.ann.has &^= 1 << keyProcess
	}
	m[key] = value
	if k >= 0 {
		e.ann.has &^= 1 << k
	}
	e.Fields = m
}

// spanIn locates value in msg by address: the extracted fields are
// substrings of the message, so their offsets are all an event keeps.
// The empty value has a span anywhere.
func spanIn(msg, value string) (span, bool) {
	if value == "" {
		return span{}, true
	}
	if len(msg) > maxSpanned || len(value) > len(msg) {
		return span{}, false
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(msg)))
	at := uintptr(unsafe.Pointer(unsafe.StringData(value)))
	if at < base || at-base > uintptr(len(msg)-len(value)) {
		return span{}, false
	}
	from := int(at - base)
	return span{uint16(from), uint16(from + len(value))}, true
}

// AddTag appends the tag if the event lacks it. The event gets a new
// slice, so a tag slice shared with other events is never written.
func (e *Event) AddTag(tag string) {
	if !e.HasTag(tag) {
		e.Tags = append(e.Tags[:len(e.Tags):len(e.Tags)], tag)
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
func (e Event) Field(key string) string {
	if e.ann.has != 0 {
		if k := annKey(key); k >= 0 && e.ann.has&(1<<k) != 0 {
			return e.annValue(k)
		}
	}
	return e.Fields[key]
}

// annValue returns the value of the present annotator key k.
func (e *Event) annValue(k int) string {
	switch {
	case k < nSpans:
		s := e.ann.spans[k]
		return e.Message[s.from:s.to]
	case k == keyProcess:
		return e.Fields["taskid"]
	case k == keyStep:
		return e.ann.note.stepID
	case k == keyActivity:
		return e.ann.note.activity
	}
	return reorderValues[e.ann.reorder]
}

// fieldMap returns every field, annotated ones included. It is Fields
// itself when the event carries no annotation, so it is read-only.
func (e *Event) fieldMap() map[string]string {
	if e.ann.has == 0 {
		return e.Fields
	}
	m := make(map[string]string, len(e.Fields)+nKeys)
	for k, v := range e.Fields {
		m[k] = v
	}
	for k := 0; k < nKeys; k++ {
		if e.ann.has&(1<<k) != 0 {
			m[annKeys[k]] = e.annValue(k)
		}
	}
	return m
}

// MarshalJSON implements json.Marshaler with deterministic field ordering
// for the @fields map (sorted keys), which keeps golden-file tests stable.
// The annotated fields are marshaled into @fields with the rest.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event // avoid recursion
	a := alias(e)
	a.Fields = e.fieldMap()
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
	if fields := e.fieldMap(); len(fields) > 0 {
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%s", k, fields[k])
		}
		b.WriteString("}")
	}
	b.WriteString(" ")
	b.WriteString(e.Message)
	return b.String()
}
