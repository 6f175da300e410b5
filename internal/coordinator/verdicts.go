package coordinator

import (
	"context"
	"time"
)

// Sources of a price check's rows, as ScheduleCheck places it.
const (
	SourceFanout    = "fanout"    // a fresh job: the check runs its own vantage fan-out
	SourceCoalesced = "coalesced" // attached to an identical check still in flight
	SourceCached    = "cached"    // attached to an identical check finished within VerdictTTL
)

// DefaultVerdictTTL is how long a completed check answers identical ones.
// One constant for every shop: long enough to absorb a press spike's
// duplicates, short next to how often a retailer reprices.
const DefaultVerdictTTL = 30 * time.Second

// Placement is ScheduleCheck's answer: the job whose rows answer the check
// and the Measurement server holding them.
type Placement struct {
	JobID      string
	ServerAddr string
	// Source says what the caller does next: submit the check under JobID
	// (SourceFanout), or attach to it (SourceCoalesced, SourceCached).
	Source string
	// DoneAt is when the job finished (SourceCached only).
	DoneAt time.Time
}

// verdictKey is what makes two checks the same question: the check key the
// submitter derived from its request (canonical URL, Tags Path, currency,
// day) and the initiator's location exactly as PeersNear groups it, since
// that is what selects the PPCs whose rows the answer carries.
type verdictKey struct{ check, loc string }

// verdict is one index entry: the job answering a key and where.
type verdict struct {
	key    verdictKey
	jobID  string
	server string
	doneAt time.Time // zero while the job is in flight
}

// ScheduleCheck is step 1 of the protocol for a check that names its
// question. When an identical check is in flight, or finished within
// VerdictTTL, the answer is a placement on that job and nothing is minted;
// otherwise — or when fresh is set, as for watch runs and for a check
// whose source turned out not to be shareable — it is NewJob, with the new
// job indexed under the key. An empty key, or an initiator the peer
// registry cannot place, is plain NewJob. The index is soft state of the
// replica that serves the call: never replicated, emptied by
// ResetReplicated.
func (c *Coordinator) ScheduleCheck(ctx context.Context, domain, initiatorID, key string, fresh bool) (Placement, error) {
	p, _, err := c.schedule(ctx, domain, initiatorID, key, fresh)
	return p, err
}

// schedule is ScheduleCheck also returning the freshly minted job (nil for
// an attached placement), which the RPC front-end replicates.
func (c *Coordinator) schedule(ctx context.Context, domain, initiatorID, key string, fresh bool) (Placement, *Job, error) {
	if err := c.checkWhitelist(ctx, domain); err != nil {
		return Placement{}, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var vk verdictKey
	if init, ok := c.peers[initiatorID]; ok && key != "" {
		vk = verdictKey{check: key, loc: c.location(init)}
		now := time.Now()
		c.expireVerdictsLocked(now)
		if v := c.verdicts[vk]; v != nil && !fresh {
			p := Placement{JobID: v.jobID, ServerAddr: v.server, Source: SourceCoalesced}
			if !v.doneAt.IsZero() {
				p.Source, p.DoneAt = SourceCached, v.doneAt
			}
			c.Log.Debug(ctx, "check attached", "job", v.jobID, "source", p.Source)
			return p, nil, nil
		}
	}
	job, err := c.mintLocked(ctx, domain, initiatorID)
	if err != nil {
		return Placement{}, nil, err
	}
	if vk.check != "" {
		job.key = vk
		c.verdicts[vk] = &verdict{key: vk, jobID: job.ID, server: job.ServerAddr}
		c.Metrics.setVerdictEntries(len(c.verdicts))
	}
	return Placement{JobID: job.ID, ServerAddr: job.ServerAddr, Source: SourceFanout}, job, nil
}

// verdictDoneLocked turns a finished job's entry into a cached verdict,
// unless a newer job has taken the key over. Callers hold c.mu.
func (c *Coordinator) verdictDoneLocked(job *Job, now time.Time) {
	if v := c.verdicts[job.key]; v != nil && v.jobID == job.ID {
		v.doneAt = now
		c.doneQ = append(c.doneQ, v)
	}
}

// verdictDropLocked forgets the entry of a job that will not answer from
// where the index says: requeued to another server, or dropped.
func (c *Coordinator) verdictDropLocked(job *Job) {
	if v := c.verdicts[job.key]; v != nil && v.jobID == job.ID {
		delete(c.verdicts, job.key)
		c.Metrics.setVerdictEntries(len(c.verdicts))
	}
}

// expireVerdictsLocked removes finished entries older than VerdictTTL.
// Jobs finish in queue order, so the expired ones are a prefix: amortised
// O(1) per completed check.
func (c *Coordinator) expireVerdictsLocked(now time.Time) {
	n := 0
	for n < len(c.doneQ) && now.Sub(c.doneQ[n].doneAt) >= c.VerdictTTL {
		if v := c.doneQ[n]; c.verdicts[v.key] == v {
			delete(c.verdicts, v.key)
		}
		c.doneQ[n] = nil
		n++
	}
	if n > 0 {
		c.doneQ = c.doneQ[n:]
		c.Metrics.setVerdictEntries(len(c.verdicts))
	}
}
