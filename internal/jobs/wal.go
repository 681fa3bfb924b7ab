// Package jobs is the durable asynchronous Monte-Carlo job subsystem: a
// write-ahead log plus snapshot store persists job specs, state
// transitions and periodic raw-tally checkpoints, and a bounded runner
// pool executes jobs in checkpoint-sized slices of the global sample
// index space. Because every sample draws from its own (seed, global
// index) stream and sim.Merge folds integer tallies exactly, a job that
// is interrupted at any durable checkpoint — daemon crash, SIGKILL,
// graceful restart — resumes from its last checkpointed index and
// finishes with a Result bit-identical (Elapsed excluded, as everywhere
// in the repo's merge contract) to an uninterrupted single-process run.
//
// Durability layout (one directory per Manager):
//
//	jobs.snap        atomic-rename JSON snapshot of every live job + ID counter
//	jobs-NNNNNN.wal  length-prefixed, CRC-32-checked, fsync'd record log,
//	                 rotated into size-capped segments
//	jobs.wal         legacy single-segment log from older stores, read at
//	                 recovery and removed at the first compaction
//
// Recovery replays the segments in order over the snapshot (record
// application is idempotent and monotone, so replaying records the
// snapshot already covers is harmless), truncates a corrupt or torn tail
// instead of failing — discarding any segments past the corruption, since
// records are only meaningful in order — compacts the folded state into a
// fresh snapshot, and re-enqueues every non-terminal job. The package sits
// in the yaplint determinism tree: nothing in the replayed path reads the
// wall clock — timestamps are telemetry carried in records, produced by
// the injected Clock at append time.
//
// The same record stream doubles as the replication feed of
// internal/replica: Config.Replicator observes every durable append on a
// leader, and ApplyReplicated lands the identical bytes in a follower's
// segments, so replicated state machines stay bit-identical.
package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// legacyWALName is the pre-rotation single-file log; still replayed,
	// removed at the first compaction.
	legacyWALName = "jobs.wal"
	snapName      = "jobs.snap"
	// baseSeqName persists the replication sequence number at the last WAL
	// reset: every record currently in the segments carries base+1, base+2,
	// … in append order. Recovery derives the live sequence as
	// max(snapshot.ReplicaSeq, base + replayed count), which is correct in
	// every crash window around the snapshot-then-reset compaction pair.
	baseSeqName = "jobs.seq"

	// segPrefix/segSuffix frame the numbered segment files: jobs-000001.wal.
	segPrefix = "jobs-"
	segSuffix = ".wal"

	// maxRecordBytes bounds one WAL record. Records are small JSON blobs
	// (a spec with an embedded parameter set is the largest); anything
	// beyond this is treated as corruption at replay.
	maxRecordBytes = 4 << 20

	// defaultSegmentBytes is the rotation threshold when Config leaves
	// WALSegmentBytes at zero: once the active segment reaches it, the
	// next Append opens a fresh segment.
	defaultSegmentBytes = 4 << 20
)

// walHeaderSize is the per-record framing: uint32 payload length plus
// uint32 CRC-32 (IEEE) of the payload, both little-endian.
const walHeaderSize = 8

// RecordCRC is the checksum shipped alongside a replicated record so a
// follower can reject bytes mangled in transit before they reach its own
// durable segments — the same CRC-32 (IEEE) the on-disk framing uses.
func RecordCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// segPath names segment n inside dir.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

// parseSegName extracts the segment number from a jobs-NNNNNN.wal name.
func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, segSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the numbered segments in dir in ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: list wal segments: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// walPos names where replay stopped: the segment holding the last intact
// record, the byte offset just past it, and any later segments that must
// be discarded (records are only meaningful in order, so segments past a
// corruption are unusable). seg 0 with legacy=true is the pre-rotation
// jobs.wal file.
type walPos struct {
	seg    uint64
	legacy bool
	offset int64
	// stale lists segment file paths written after the corruption point;
	// openWAL removes them before appending resumes.
	stale []string
}

// wal is the append side of the log: every Append writes one framed
// record and fsyncs before returning, so a record that Append reported
// durable survives a crash immediately after. Once the active segment
// reaches segBytes the next Append rotates to a fresh segment, so a
// long-lived store never grows one unbounded file; Reset (compaction)
// removes every segment the snapshot now covers.
type wal struct {
	dir      string
	segBytes int64

	mu   sync.Mutex
	f    *os.File //yaplint:guardedby mu
	seg  uint64   //yaplint:guardedby mu
	size int64    //yaplint:guardedby mu
}

// openWAL opens the log in dir for appending at pos — the point replayWAL
// reported as the end of the last intact record — truncating the active
// segment there and deleting any stale later segments, so a torn tail is
// physically discarded before new records land after it. segBytes of 0
// uses the default rotation threshold.
func openWAL(dir string, segBytes int64, pos walPos) (*wal, error) {
	segBytes = Config{WALSegmentBytes: segBytes}.walSegmentBytes()
	for _, stale := range pos.stale {
		if err := os.Remove(stale); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("jobs: remove stale wal segment: %w", err)
		}
	}
	path := segPath(dir, pos.seg)
	if pos.legacy {
		path = filepath.Join(dir, legacyWALName)
	} else if pos.seg == 0 {
		// Fresh store: no segments yet, start at 1.
		pos.seg = 1
		path = segPath(dir, 1)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open wal segment: %w", err)
	}
	if err := f.Truncate(pos.offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: seek wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{dir: dir, segBytes: segBytes, f: f, size: pos.offset}
	if !pos.legacy {
		w.seg = pos.seg
	}
	return w, nil
}

// Append durably writes one record: frame + payload in a single write,
// then fsync. An error leaves the caller free to retry or to fail the
// operation the record was logging; a torn write from a crash mid-call is
// healed by replay truncation at the next open. When the active segment
// has reached the rotation threshold the record lands in a fresh segment.
func (w *wal) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("jobs: empty wal record")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("jobs: wal record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordBytes)
	}
	buf := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[walHeaderSize:], payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.size > 0 && w.size+int64(len(buf)) > w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("jobs: append wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: fsync wal: %w", err)
	}
	w.size += int64(len(buf))
	return nil
}

// rotateLocked closes the active segment and opens the next one. The new
// segment's directory entry is fsync'd before any record lands in it — a
// segment whose records are durable but whose name is not would vanish
// wholesale on a crash. Callers hold w.mu.
func (w *wal) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("jobs: close rotated wal segment: %w", err)
	}
	next := w.seg + 1
	f, err := os.OpenFile(segPath(w.dir, next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: open next wal segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.seg, w.size = f, next, 0
	return nil
}

// Size reports the total bytes across the active segment and every
// earlier one still on disk — the quantity size-triggered compaction
// thresholds against.
func (w *wal) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.size
	segs, err := listSegments(w.dir)
	if err != nil {
		return total
	}
	for _, n := range segs {
		if n == w.seg {
			continue
		}
		if fi, err := os.Stat(segPath(w.dir, n)); err == nil {
			total += fi.Size()
		}
	}
	if fi, err := os.Stat(filepath.Join(w.dir, legacyWALName)); err == nil {
		total += fi.Size()
	}
	return total
}

// Reset empties the log (compaction: the snapshot now carries everything
// the log held): every fully-compacted segment — and the legacy
// single-file log, if the store predates rotation — is deleted, and
// appending restarts in a fresh first segment. The directory entry churn
// is fsync'd; a crash mid-reset leaves either the old segments (snapshot
// replays over them harmlessly) or an empty log.
func (w *wal) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("jobs: close wal for reset: %w", err)
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if err := os.Remove(segPath(w.dir, n)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("jobs: remove compacted wal segment: %w", err)
		}
	}
	if err := os.Remove(filepath.Join(w.dir, legacyWALName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("jobs: remove legacy wal: %w", err)
	}
	f, err := os.OpenFile(segPath(w.dir, 1), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopen wal after reset: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.seg, w.size = f, 1, 0
	return nil
}

// TruncateTail physically discards every record after the first keep
// records in the log — the follower side of replication conflict repair,
// where a new leader's history overrides a suffix this store appended
// under a deposed one. Later segments are deleted last-to-first and the
// boundary segment is truncated at a record frame, so a crash at any
// point leaves a record-boundary prefix of the original log: either the
// truncation simply ran partway (more records survive than asked, all of
// them previously durable) or it completed. Appending resumes in the
// boundary segment.
func (w *wal) TruncateTail(keep int) error {
	if keep < 0 {
		return errors.New("jobs: negative wal truncation")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("jobs: close wal for truncation: %w", err)
	}
	type segment struct {
		path   string
		num    uint64
		legacy bool
	}
	var order []segment
	legacy := filepath.Join(w.dir, legacyWALName)
	if _, err := os.Stat(legacy); err == nil {
		order = append(order, segment{path: legacy, legacy: true})
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		order = append(order, segment{path: segPath(w.dir, n), num: n})
	}
	// Find the boundary: the file holding record number keep (1-based) and
	// the offset just past it. keep == 0 cuts at the very start.
	cut := -1
	var cutOff int64
	remaining := keep
	for i, seg := range order {
		data, readErr := os.ReadFile(seg.path)
		if readErr != nil && !errors.Is(readErr, fs.ErrNotExist) {
			return fmt.Errorf("jobs: read wal segment for truncation: %w", readErr)
		}
		records, _, _ := replaySegment(data)
		if remaining <= len(records) {
			cut = i
			off := int64(0)
			for _, rec := range records[:remaining] {
				off += walHeaderSize + int64(len(rec))
			}
			cutOff = off
			break
		}
		remaining -= len(records)
	}
	if cut < 0 {
		return fmt.Errorf("jobs: wal truncation keeps %d records but the log holds fewer", keep)
	}
	// Delete the segments past the boundary newest-first, then truncate the
	// boundary file — each step only shortens the log from the tail.
	for i := len(order) - 1; i > cut; i-- {
		if err := os.Remove(order[i].path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("jobs: remove truncated wal segment: %w", err)
		}
	}
	f, err := os.OpenFile(order[cut].path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopen wal boundary segment: %w", err)
	}
	if err := f.Truncate(cutOff); err != nil {
		f.Close()
		return fmt.Errorf("jobs: truncate wal boundary segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: fsync truncated wal segment: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("jobs: seek truncated wal segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, cutOff
	if order[cut].legacy {
		w.seg = 0
	} else {
		w.seg = order[cut].num
	}
	return nil
}

func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// replayWAL reads every intact record from the segments in dir in append
// order: the legacy jobs.wal first (older stores), then the numbered
// segments ascending. It never fails on corruption: a record whose frame
// is torn (crash mid-write), whose length is insane, or whose CRC
// disagrees ends the replay there — later segments are reported stale in
// pos, since records past a corruption are only meaningful in order — and
// truncated reports that bytes were discarded. Pass pos to openWAL so the
// tail is physically removed. A missing directory or empty segment set is
// an empty log.
func replayWAL(dir string) (records [][]byte, pos walPos, truncated bool, err error) {
	type segment struct {
		path   string
		num    uint64
		legacy bool
	}
	var order []segment
	legacy := filepath.Join(dir, legacyWALName)
	if _, statErr := os.Stat(legacy); statErr == nil {
		order = append(order, segment{path: legacy, legacy: true})
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, walPos{}, false, err
	}
	for _, n := range segs {
		order = append(order, segment{path: segPath(dir, n), num: n})
	}
	if len(order) == 0 {
		return nil, walPos{}, false, nil
	}
	for i, seg := range order {
		data, readErr := os.ReadFile(seg.path)
		if errors.Is(readErr, fs.ErrNotExist) {
			continue
		}
		if readErr != nil {
			return nil, walPos{}, false, fmt.Errorf("jobs: read wal segment: %w", readErr)
		}
		segRecords, off, segTruncated := replaySegment(data)
		records = append(records, segRecords...)
		pos = walPos{seg: seg.num, legacy: seg.legacy, offset: off}
		if segTruncated {
			// Everything after the corruption — the rest of this segment
			// and every later one — is discarded.
			for _, later := range order[i+1:] {
				pos.stale = append(pos.stale, later.path)
			}
			return records, pos, true, nil
		}
	}
	return records, pos, false, nil
}

// replaySegment walks one segment's framing, returning the intact records,
// the offset past the last one, and whether trailing bytes were dropped.
func replaySegment(data []byte) (records [][]byte, cleanOffset int64, truncated bool) {
	off := 0
	for off+walHeaderSize <= len(data) {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecordBytes || off+walHeaderSize+int(n) > len(data) {
			break
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		records = append(records, payload)
		off += walHeaderSize + int(n)
	}
	return records, int64(off), off < len(data)
}

// readBaseSeq loads the WAL base sequence and the term of the record at
// it; a missing or unreadable file is base 0 (pre-replication stores),
// and a file from before term tracking reports term 0.
func readBaseSeq(dir string) (seq, term uint64) {
	data, err := os.ReadFile(filepath.Join(dir, baseSeqName))
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, 0
	}
	seq, err = strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, 0
	}
	if len(fields) > 1 {
		term, _ = strconv.ParseUint(fields[1], 10, 64) //nolint:errcheck // malformed term reads as 0, like a pre-term file
	}
	return seq, term
}

// writeBaseSeq durably records the WAL base sequence and the term of the
// record at it after a reset. The pair is written atomically alongside
// the snapshot it describes, so (seq, term) are always internally
// consistent whatever crash window they are read back from.
func writeBaseSeq(dir string, seq, term uint64) error {
	content := strconv.FormatUint(seq, 10) + " " + strconv.FormatUint(term, 10) + "\n"
	return writeFileAtomic(filepath.Join(dir, baseSeqName), []byte(content))
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs the file, renames it into place and fsyncs the
// directory — the snapshot either fully exists or the old one survives.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: create snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: close snapshot temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("jobs: rename snapshot into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed or just-created entry is
// durable. Filesystems that refuse to fsync a directory are tolerated —
// the data files themselves are already synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobs: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("jobs: fsync dir: %w", err)
	}
	return nil
}
