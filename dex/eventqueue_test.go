package dex

import "testing"

// TestEventQueueReusesDeliveredBatch: the batch the dispatcher hands
// back becomes the queue's next buffer, cleared so it pins no delivered
// event, so a warm push/wait cycle allocates nothing; a batch whose
// capacity passed evQueueResetCap is dropped instead.
func TestEventQueueReusesDeliveredBatch(t *testing.T) {
	q := newEventQueue(8)
	evs := []Event{EdgesChanged{Step: 1}, StaggerStarted{}}
	var batch []Event
	cycle := func() {
		q.push(evs)
		var ok bool
		batch, ok = q.wait(batch)
		if !ok || len(batch) != len(evs) {
			t.Fatalf("wait returned %d events, ok=%v, want %d, ok=true", len(batch), ok, len(evs))
		}
	}
	cycle()
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("a warm push/wait cycle allocates %.2f, want 0", a)
	}

	delivered := batch
	cycle()
	if delivered[0] != nil || delivered[1] != nil {
		t.Fatal("the batch handed back still pins its delivered events")
	}
	if &q.buf[:1][0] != &delivered[:1][0] {
		t.Fatal("the batch handed back is not the next buffer")
	}

	q.push(make([]Event, evQueueResetCap+1))
	batch, _ = q.wait(batch)
	q.push(evs)
	big := batch
	batch, _ = q.wait(batch)
	if c := cap(q.buf); c > evQueueResetCap || &q.buf[:1][0] == &big[:1][0] {
		t.Fatalf("a batch of capacity %d became the next buffer (capacity %d), want it dropped", cap(big), c)
	}
}
