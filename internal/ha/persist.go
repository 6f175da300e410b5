package ha

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pricesheriff/internal/history"
)

// durableState is the slice of protocol state that must survive a crash:
// the current term and who we voted for in it. Without it a restarted
// replica could vote twice in one term and hand out two majorities —
// the one way to get two primaries in the same term.
type durableState struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"voted_for"`
}

const stateFile = "ha-state.json"

// loadState reads the durable term/vote from dir; a missing file is a
// fresh node.
func loadState(dir string) (durableState, error) {
	var st durableState
	raw, err := os.ReadFile(filepath.Join(dir, stateFile))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, err
	}
	return st, nil
}

// openLog recovers the replicated log from the node's WAL directory and
// reopens it for appending. The WAL reuses the price-history segment
// machinery (CRC-framed records, torn-tail repair): each record is one
// JSON Entry, and replay applies the same index-overwrite rule as live
// replication, so a conflict-truncated tail is rewritten naturally by
// the later records. Called from NewNode before any goroutines exist.
func (n *Node) openLog() error {
	seqs, err := history.ListSegments(n.cfg.Dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		path := filepath.Join(n.cfg.Dir, fmt.Sprintf("wal-%08d.seg", seq))
		_, _, rerr := history.ReplaySegment(path, func(payload []byte) error {
			var e Entry
			if err := json.Unmarshal(payload, &e); err != nil {
				return err
			}
			if e.Index == 0 {
				return errors.New("ha: log record without index")
			}
			if e.Index <= uint64(len(n.log)) {
				n.log = n.log[:e.Index-1]
			}
			if e.Index != uint64(len(n.log))+1 {
				return fmt.Errorf("ha: log gap: record %d after %d", e.Index, len(n.log))
			}
			n.log = append(n.log, e)
			return nil
		})
		// A torn tail is only legal on the newest segment; ReplaySegment
		// already stops at the last good frame, so keep what decoded.
		if rerr != nil {
			return rerr
		}
	}
	wal, err := history.OpenWAL(n.cfg.Dir, history.WALOptions{})
	if err != nil {
		return err
	}
	n.wal = wal
	return nil
}

// walAppendLocked records one entry in the durable log. Callers hold
// n.mu; without a Dir this is a no-op. An entry whose append failed is in
// no log, so the caller must neither acknowledge nor count it.
func (n *Node) walAppendLocked(e Entry) error {
	if n.wal == nil {
		return nil
	}
	raw, err := json.Marshal(&e)
	if err == nil {
		err = n.wal.Append(raw)
	}
	if err != nil {
		return fmt.Errorf("ha: wal append: %w", err)
	}
	return nil
}

// persistLocked writes term/vote with the usual write-fsync-rename dance
// so a torn write cannot corrupt the previous state. Callers hold n.mu.
// Nodes without a Dir keep the state in memory only — fine for tests
// and single-process demos, required reading before trusting a restart.
// A vote whose write failed must not be cast: after a restart the node
// would not know it had voted in that term.
func (n *Node) persistLocked() error {
	if n.cfg.Dir == "" {
		return nil
	}
	raw, err := json.Marshal(&durableState{Term: n.term, VotedFor: n.votedFor})
	if err != nil {
		return err
	}
	path := filepath.Join(n.cfg.Dir, stateFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ha: persist state: %w", err)
	}
	_, werr := f.Write(raw)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		return fmt.Errorf("ha: persist state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ha: persist state: %w", err)
	}
	return nil
}
