package logging

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzEventFields drives SetField, Annotate, AddTag and Clone over
// events that share one published Fields map and the notes' tag slices,
// and holds each event to a plain map and slice reference: Field, Tags,
// MarshalJSON and String must read as they would on an event whose
// Fields is that map, and nothing shared may ever be written. Values are
// drawn from substrings of the message (the inline form), the notes' step
// ids and activities, task ids, the reorder stamps and arbitrary strings
// (which take the map), over the annotator's keys, "taskid" and unknown
// keys.
func FuzzEventFields(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0x20, 3, 0x41, 7, 0x82, 11, 0xc3, 15, 0x04, 19, 0x45})
	f.Add([]byte{0, 0x10, 0x11, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x89, 0x9a, 0xab})
	f.Add(bytes.Repeat([]byte{0x5a, 0x3c}, 40))
	message := "[2013-10-24 11:41:48,312] [Task:Pushing ami-750c9e4f into group pm--asg] " +
		"Instance pm on i-7df34041 is ready for use. 3 of 4 instance relaunches done."
	long := message + strings.Repeat(" padding", maxSpanned/8)
	notes := []*Note{
		NewNote("upd", "step3", "Update group"),
		NewNote("status", "", "Status info"),
		NewNote("step2", "step2", "error"),
	}
	keys := append(annKeys[:], "taskid", "owner", "")
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		base := map[string]string{"taskid": "t-1", "asgid": "stale", "owner": "ops", "stepid": "old"}
		pristine := maps.Clone(base)
		msg := message
		if ops[0]&1 == 1 {
			msg = long
		}
		values := func(b byte) string {
			switch b % 8 {
			case 0, 1, 2:
				from := int(b) * 7 % len(message)
				return msg[from : from+int(b>>3)%(len(message)-from+1)]
			case 3:
				return notes[int(b>>3)%len(notes)].stepID
			case 4:
				return notes[int(b>>3)%len(notes)].activity
			case 5:
				return []string{"t-1", "t-2", ""}[int(b>>3)%3]
			case 6:
				return reorderValues[int(b>>3)%len(reorderValues)]
			}
			return string([]byte{'v', b})
		}
		evs := []Event{{Timestamp: time.Unix(1382614908, 0).UTC(), Type: TypeOperation, Fields: base, Message: msg}}
		refs := []map[string]string{maps.Clone(base)}
		refTags := [][]string{nil}
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			e := int(op>>3) % len(evs)
			ev, ref := &evs[e], refs[e]
			switch op % 8 {
			case 0, 1, 2, 3:
				key, value := keys[int(arg)%len(keys)], values(arg^op)
				ev.SetField(key, value)
				ref[key] = value
			case 4:
				n := notes[int(arg)%len(notes)]
				ev.Annotate(n)
				ref["activity"] = n.activity
				if n.stepID != "" {
					ref["stepid"] = n.stepID
				}
			case 5:
				tag := values(arg)
				ev.AddTag(tag)
				if !slices.Contains(refTags[e], tag) {
					refTags[e] = append(slices.Clone(refTags[e]), tag)
				}
			case 6:
				ev.Tags = n2tags(notes, arg)
				refTags[e] = slices.Clone(ev.Tags)
			default:
				evs = append(evs, ev.Clone())
				refs = append(refs, maps.Clone(ref))
				refTags = append(refTags, slices.Clone(refTags[e]))
			}
			for _, key := range keys {
				if got, want := ev.Field(key), ref[key]; got != want {
					t.Fatalf("op %d: Field(%q) = %q, reference %q", i, key, got, want)
				}
			}
		}
		for i := range evs {
			if !slices.Equal(evs[i].Tags, refTags[i]) {
				t.Fatalf("event %d has tags %q, reference %q", i, evs[i].Tags, refTags[i])
			}
			plain := evs[i]
			plain.ann, plain.Fields = annotation{}, refs[i]
			got, err := evs[i].MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := plain.MarshalJSON()
			if !bytes.Equal(got, want) {
				t.Fatalf("event %d marshals as\n%s\nreference\n%s", i, got, want)
			}
			if got, want := evs[i].String(), plain.String(); got != want {
				t.Fatalf("event %d renders as %q, reference %q", i, got, want)
			}
		}
		if !maps.Equal(base, pristine) {
			t.Fatalf("the shared Fields map was written: %v", base)
		}
		for i, n := range notes {
			fresh := NewNote([]string{"upd", "status", "step2"}[i], n.stepID, n.activity)
			if !slices.Equal(n.tags[0], fresh.tags[0]) || !slices.Equal(n.tags[1], fresh.tags[1]) {
				t.Fatalf("note %d's shared tags were written: %q", i, n.tags)
			}
		}
	})
}

// n2tags picks a shared tag slice from a note.
func n2tags(notes []*Note, b byte) []string {
	var n *Note
	if i := int(b>>1) % (len(notes) + 1); i < len(notes) {
		n = notes[i]
	}
	return n.Tags(b&1 == 1)
}
