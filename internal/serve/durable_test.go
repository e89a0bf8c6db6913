package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// longLoopSource builds a jasm program whose single loop runs n iterations —
// long enough (n around a million is hundreds of milliseconds of wall time)
// for periodic checkpoints to land mid-run.
func longLoopSource(n int64) string {
	return fmt.Sprintf(`
program longloop
statics 1
method main args=0 locals=2 returns=false
    const 0
    store 1
    const 0
    store 0
  .L:
    load 0
    const %d
    if_icmpge .E
    load 1
    load 0
    const 17
    imul
    iadd
    store 1
    iinc 0 1
    goto .L
  .E:
    load 1
    print
    return
end
`, n)
}

// durableConfig is the shared config for durability tests: aggressive
// checkpointing so a sub-second job checkpoints many times.
func durableConfig(dir string) Config {
	return Config{
		Workers:         1,
		QueueDepth:      8,
		DefaultDeadline: 60 * time.Second,
		DataDir:         dir,
		CheckpointEvery: 10 * time.Millisecond,
	}
}

// copyTree snapshots src into dst — the on-disk state a kill -9 at this
// instant would leave behind (every file in it was written with fsync
// ordering, so the copy is a valid crash image).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// waitForJournalCheckpoint polls the WAL until a checkpointed record for the
// job is durable (the record is appended after the checkpoint file syncs, so
// seeing it implies the checkpoint file is complete too).
func waitForJournalCheckpoint(t *testing.T, dir string, id int64) {
	t.Helper()
	waitForJournalEvent(t, dir, id, evCheckpointed)
}

// waitForJournalEvent blocks until the journal holds an event record for
// job id.
func waitForJournalEvent(t *testing.T, dir string, id int64, event string) {
	t.Helper()
	needle := []byte(fmt.Sprintf(`"event":%q,"id":%d`, event, id))
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(journalPath(dir))
		if err == nil && bytes.Contains(b, needle) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no %s record for job %d within deadline", event, id)
}

// TestDurableCrashRecoveryResumesMidRun is the crash-durability property end
// to end: snapshot the data dir while the job is mid-run (exactly what a
// kill -9 leaves), replay it in a second server, and require the recovered
// job to resume from its checkpoint and produce wire bytes identical to the
// undisturbed run.
func TestDurableCrashRecoveryResumesMidRun(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, rec, err := Open(durableConfig(dirA))
	if err != nil {
		t.Fatal(err)
	}
	if rec != (Recovery{}) {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	sA.Start()
	spec := JobSpec{Name: "crashme", Source: longLoopSource(1_000_000)}
	v, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForJournalCheckpoint(t, dirA, v.ID)
	copyTree(t, dirA, dirB) // the "kill -9 now" disk image

	// Let server A finish undisturbed: its result is the reference bytes.
	ref := waitDone(t, sA, v.ID)
	if ref.Status != StatusDone {
		t.Fatalf("reference job: %+v", ref)
	}
	refWire, err := sA.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	sA.Shutdown(ctx)
	cancel()

	// "Restart" from the crash image.
	sB, recB, err := Open(durableConfig(dirB))
	if err != nil {
		t.Fatal(err)
	}
	if recB.Resumed != 1 || recB.Restarted != 0 || recB.Completed != 0 {
		t.Fatalf("recovery = %+v, want exactly one resumed job", recB)
	}
	sB.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sB.Shutdown(ctx)
	}()
	got := waitDone(t, sB, v.ID) // same ID survives the crash
	if got.Status != StatusDone {
		t.Fatalf("recovered job: status %s: %s", got.Status, got.Error)
	}
	if !got.Resumed {
		t.Fatal("recovered job did not resume from its checkpoint")
	}
	gotWire, err := sB.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatalf("recovered result diverged from undisturbed run (%d vs %d bytes)", len(gotWire), len(refWire))
	}
}

// TestDurableRestoresFinishedJobs reopens a data dir after a clean shutdown:
// terminal jobs reappear with their views and result bytes, and the ID
// sequence continues past them.
func TestDurableRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	v, err := s1.Submit(JobSpec{Name: "short", Source: longLoopSource(200)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}
	refWire, err := s1.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Shutdown(ctx)
	cancel()

	s2, rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 1 || rec.Resumed != 0 || rec.Restarted != 0 {
		t.Fatalf("recovery = %+v, want exactly one completed job", rec)
	}
	got, err := s2.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Name != "short" {
		t.Fatalf("restored view: %+v", got)
	}
	gotWire, err := s2.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatal("restored result bytes differ from the original")
	}
	s2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	v2, err := s2.Submit(JobSpec{Name: "next", Source: longLoopSource(200)})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID <= v.ID {
		t.Fatalf("ID sequence regressed: new job %d after recovered %d", v2.ID, v.ID)
	}
}

// TestDurableShutdownReenqueuesForcedJobs: a job force-cancelled because the
// shutdown grace expired is interrupted work, not a conclusion — reopening
// the dir re-enqueues it (resuming from the shutdown sweep's checkpoint) and
// the finished result matches a plain in-memory run bit for bit.
func TestDurableShutdownReenqueuesForcedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	spec := JobSpec{Name: "drainme", Source: longLoopSource(1_000_000)}
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForJournalCheckpoint(t, dir, v.ID)
	// Grace already expired: the job is swept for a final checkpoint, then
	// force-cancelled.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	forced := s1.Shutdown(ctx)
	cancel()
	if forced != 1 {
		t.Fatalf("forced = %d, want 1", forced)
	}

	s2, rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed != 1 || rec.Completed != 0 {
		t.Fatalf("recovery = %+v, want the cancelled job re-enqueued with a checkpoint", rec)
	}
	s2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	got := waitDone(t, s2, v.ID)
	if got.Status != StatusDone || !got.Resumed {
		t.Fatalf("recovered job: status=%s resumed=%v err=%q", got.Status, got.Resumed, got.Error)
	}
	gotWire, err := s2.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference leg: the same spec on a plain in-memory server.
	mem := newTestServer(t, nil)
	rv, err := mem.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rd := waitDone(t, mem, rv.ID); rd.Status != StatusDone {
		t.Fatalf("reference job: %+v", rd)
	}
	refWire, err := mem.ResultBytes(rv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatal("resumed-after-shutdown result diverged from a fresh run")
	}
}

// TestJournalTornTailTolerated: a partial trailing record (crash mid-append)
// is dropped silently; a torn record in the middle of the file is refused.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	whole := `{"event":"accepted","id":1,"spec":{"name":"a","workload":"BitOps"}}` + "\n"
	torn := `{"event":"done","id":1,"vi`
	if err := os.WriteFile(journalPath(dir), []byte(whole+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn tail should replay cleanly: %v", err)
	}
	jl.close()
	if len(recovered) != 1 || recovered[0].ID != 1 || recovered[0].View != nil {
		t.Fatalf("recovered = %+v, want job 1 still pending", recovered)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(journalPath(dir2), []byte(torn+"\n"+whole), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir2); err == nil {
		t.Fatal("mid-file torn record should be an error")
	}
}

// TestDurableJobDoneBeforeSubmitReturns: a job that finishes before its
// submitter gets control back must replay as done — same ID, same result
// bytes — and must not run again. The accepted record has to be durable
// before a worker can see the job; journalled after the enqueue, a fast
// job's done record preceded it and replay re-ran the finished job.
func TestDurableJobDoneBeforeSubmitReturns(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	// The hook holds Submit until the job's done record is durable.
	submitHook = func(id int64) { waitForJournalEvent(t, dir, id, evDone) }
	v, err := s1.Submit(JobSpec{Name: "fast", Source: longLoopSource(50)})
	submitHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s1, v.ID); got.Status != StatusDone {
		t.Fatalf("job: %+v", got)
	}
	refWire, err := s1.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Shutdown(ctx)
	cancel()

	s2, rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	if rec != (Recovery{Completed: 1}) {
		t.Fatalf("recovery = %+v, want exactly one completed job and nothing re-run", rec)
	}
	got, err := s2.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Name != "fast" {
		t.Fatalf("restored view: %+v", got)
	}
	gotWire, err := s2.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatal("restored result bytes differ from the original")
	}
	if n := len(s2.queue); n != 0 {
		t.Fatalf("%d jobs re-enqueued after recovery, want 0", n)
	}
}

// TestJournalRejectedVoidsAccepted: a job shed after its accepted record
// was journalled (queue full or draining) leaves a rejected record, and
// replay does not resurrect it.
func TestJournalRejectedVoidsAccepted(t *testing.T) {
	dir := t.TempDir()
	wal := `{"event":"accepted","id":1,"spec":{"name":"a","workload":"BitOps"}}` + "\n" +
		`{"event":"accepted","id":2,"spec":{"name":"b","workload":"BitOps"}}` + "\n" +
		`{"event":"rejected","id":1}` + "\n"
	if err := os.WriteFile(journalPath(dir), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(recovered) != 1 || recovered[0].ID != 2 {
		t.Fatalf("recovered = %+v, want only job 2", recovered)
	}
}
