package flight

// Snapshot transfer: federation handoff moves an operation's evidence
// ring between recorders. Export is Timeline (the ring is already its
// own serializable snapshot); Import rebuilds the ring on the adopting
// recorder while preserving the original entry IDs so restored parent
// links stay valid, and advances the adopting recorder's ID counter
// past every imported ID so post-handoff entries can never collide
// with (or sort before) restored ones.

// Import replaces the named operation's ring with the snapshot's
// entries. Entries beyond the ring capacity are dropped oldest-first
// and added to the drop counter, exactly as if they had been
// overwritten live. It returns the operation's ring (nil on a nil
// recorder), ready for post-handoff recording.
func (r *Recorder) Import(tl Timeline) *Op {
	if r == nil {
		return nil
	}
	o := r.Op(tl.Operation)
	entries := tl.Entries
	dropped := tl.Dropped
	var maxID uint64
	o.mu.Lock()
	if len(entries) > r.capacity {
		dropped += uint64(len(entries) - r.capacity)
		entries = entries[len(entries)-r.capacity:]
	}
	// Size the ring to what it imports: reuse the backing array when the
	// entries fit (clearing what the import does not overwrite), else
	// allocate exactly their number; Record grows it from there.
	if len(entries) > len(o.buf) {
		o.buf = make([]Entry, len(entries))
	} else {
		clear(o.buf[len(entries):])
	}
	o.next = 0
	o.full = false
	for _, e := range entries {
		if e.ID > maxID {
			maxID = e.ID
		}
		o.putLocked(e)
	}
	o.dropped = dropped
	o.writes.Add(1)
	o.mu.Unlock()
	// Ratchet the recorder-global counter monotonically: concurrent
	// imports and live Records may race the load, so retry until the
	// counter is at or past the imported maximum.
	for {
		cur := r.ids.Load()
		if cur >= maxID || r.ids.CompareAndSwap(cur, maxID) {
			return o
		}
	}
}
