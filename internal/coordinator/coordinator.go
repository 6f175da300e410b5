package coordinator

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pricesheriff/internal/doppelganger"
	"pricesheriff/internal/geo"
	"pricesheriff/internal/obs"
)

// PeerInfo is one row of the peer-proxy monitoring panel (paper Fig. 16).
type PeerInfo struct {
	ID      string `json:"id"`
	IP      string `json:"ip"`
	Country string `json:"country"`
	Region  string `json:"region"`
	City    string `json:"city"`
}

// Granularity selects how tightly PPCs are grouped around an initiator
// (paper Sect. 3.2: zip-code, city or country level depending on the
// geolocation service).
type Granularity int

// Grouping granularities.
const (
	ByCountry Granularity = iota
	ByCity
)

// Job is one tracked price-check request.
type Job struct {
	ID         string
	Domain     string
	ServerAddr string
	Initiator  string
	PPCs       []PeerInfo

	// key is the verdict-index entry this job answers (zero when the check
	// was scheduled without a key); see verdicts.go.
	key verdictKey
}

// Coordinator is the complete component: scheduler + whitelist + PPC
// registry + job tracking + doppelganger state distribution.
type Coordinator struct {
	Servers   *ServerList
	Whitelist *Whitelist
	World     *geo.World
	// Dopps distributes doppelganger client-side state by bearer token;
	// optional (nil disables the doppelganger path).
	Dopps *doppelganger.Manager
	// MaxPPCs caps how many peers serve one request (the paper observed
	// ≈3 with a maximum of 5).
	MaxPPCs int
	// VerdictTTL is how long a completed check keeps answering identical
	// ones (ScheduleCheck's cached tier). At zero or below no finished
	// verdict is young enough; checks in flight still coalesce.
	VerdictTTL  time.Duration
	Granularity Granularity
	// Metrics instruments job scheduling and the peer registry; set it
	// before serving traffic (nil disables). Share one bundle with
	// Servers.Metrics so the whole component reports into one registry.
	Metrics *Metrics
	// Log records scheduling decisions, trace-correlated through the
	// NewJob context (nil disables).
	Log *obs.Logger

	mu      sync.Mutex
	peers   map[string]PeerInfo
	order   []string
	jobs    map[string]*Job
	nextJob int
	// idPrefix qualifies minted job IDs; under HA it carries the primary's
	// term so two primaries can never mint the same ID. boot follows it in
	// every ID, so no two incarnations mint the same one either: the
	// durable store outlives the counter.
	idPrefix string
	boot     string
	// rrPeer rotates which peers are picked within a location so load
	// spreads across the local peer pool.
	rrPeer map[string]int
	// ringVer/ringRaw hold the shard ring of the store data plane,
	// replicated through the ha log (ring_update) so a control-plane
	// failover cannot forget where the data lives. The payload stays
	// opaque here — the coordinator stores and serves it; only core and
	// the shard package interpret it.
	ringVer int64
	ringRaw []byte
	// verdicts is the soft-state index of ScheduleCheck: which job is
	// answering, or has just answered, each check key. doneQ holds its
	// finished entries in completion order so expiry pops from the front.
	verdicts map[verdictKey]*verdict
	doneQ    []*verdict
}

// New creates a Coordinator.
func New(servers *ServerList, wl *Whitelist, world *geo.World) *Coordinator {
	return &Coordinator{
		Servers:    servers,
		Whitelist:  wl,
		World:      world,
		MaxPPCs:    5,
		VerdictTTL: DefaultVerdictTTL,
		peers:      make(map[string]PeerInfo),
		jobs:       make(map[string]*Job),
		rrPeer:     make(map[string]int),
		verdicts:   make(map[verdictKey]*verdict),
		// The boot stamp: the start in Unix microseconds, base 36 (ten
		// characters until the year 2086).
		boot: strconv.FormatInt(time.Now().UnixMicro(), 36),
	}
}

// RegisterPeer records a PPC coming online: the browser add-on sends its
// peer ID and IP on startup; the Coordinator geolocates it.
func (c *Coordinator) RegisterPeer(id, ip string) (PeerInfo, error) {
	loc, ok := c.World.LookupString(ip)
	if !ok {
		return PeerInfo{}, fmt.Errorf("coordinator: cannot geolocate peer %s (%s)", id, ip)
	}
	info := PeerInfo{ID: id, IP: ip, Country: loc.Country, Region: loc.Region, City: loc.City}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.peers[id]; !exists {
		c.order = append(c.order, id)
	}
	c.peers[id] = info
	c.Metrics.setPeersOnline(len(c.peers))
	return info, nil
}

// UnregisterPeer removes a PPC (browser closed).
func (c *Coordinator) UnregisterPeer(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.peers, id)
	for i, pid := range c.order {
		if pid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.Metrics.setPeersOnline(len(c.peers))
}

// Peers returns the monitoring-panel rows.
func (c *Coordinator) Peers() []PeerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerInfo, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.peers[id])
	}
	return out
}

// PeersNear returns up to max PPCs in the same location as the initiator,
// never including the initiator itself — the list sent to the Measurement
// server in step 1.1. Selection rotates so repeated requests use the whole
// local pool.
func (c *Coordinator) PeersNear(initiatorID string, max int) []PeerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peersNearLocked(initiatorID, max)
}

// location is the group PeersNear draws an initiator's PPCs from: the
// country, or country/city at city granularity. Callers hold c.mu.
func (c *Coordinator) location(p PeerInfo) string {
	if c.Granularity == ByCity {
		return p.Country + "/" + p.City
	}
	return p.Country
}

func (c *Coordinator) peersNearLocked(initiatorID string, max int) []PeerInfo {
	init, ok := c.peers[initiatorID]
	if !ok {
		return nil
	}
	var local []PeerInfo
	for _, id := range c.order {
		p := c.peers[id]
		if p.ID == initiatorID {
			continue
		}
		if p.Country != init.Country {
			continue
		}
		if c.Granularity == ByCity && p.City != init.City {
			continue
		}
		local = append(local, p)
	}
	if max <= 0 || max > len(local) {
		max = len(local)
	}
	key := c.location(init)
	start := c.rrPeer[key]
	c.rrPeer[key] = start + max
	out := make([]PeerInfo, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, local[(start+i)%len(local)])
	}
	return out
}

// NewJob runs step 1 of the price-check protocol: whitelist the domain,
// create a globally unique job ID, pick the least-loaded online
// Measurement server, and snapshot the PPC list for that job. The
// context carries only observability state (the submitter's trace for
// log correlation); scheduling itself is not cancelable.
func (c *Coordinator) NewJob(ctx context.Context, domain, initiatorID string) (*Job, error) {
	if err := c.checkWhitelist(ctx, domain); err != nil {
		return nil, err
	}
	c.mu.Lock()
	job, err := c.mintLocked(ctx, domain, initiatorID)
	c.mu.Unlock()
	return job, err
}

func (c *Coordinator) checkWhitelist(ctx context.Context, domain string) error {
	if !c.Whitelist.Check(domain) {
		c.Metrics.whitelistRejected()
		c.Log.Warn(ctx, "job rejected: domain not whitelisted", "domain", domain)
		return fmt.Errorf("coordinator: domain %q is not whitelisted", domain)
	}
	return nil
}

// mintLocked creates and tracks a fresh job on the least-loaded online
// server. Callers hold c.mu (which orders before the server list's lock).
func (c *Coordinator) mintLocked(ctx context.Context, domain, initiatorID string) (*Job, error) {
	addr, err := c.Servers.Assign()
	if err != nil {
		c.Log.Warn(ctx, "job rejected: no measurement server", "domain", domain, "err", err.Error())
		return nil, err
	}
	ppcs := c.peersNearLocked(initiatorID, c.MaxPPCs)
	c.nextJob++
	job := &Job{
		ID:         fmt.Sprintf("%sjob-%s-%08d", c.idPrefix, c.boot, c.nextJob),
		Domain:     domain,
		ServerAddr: addr,
		Initiator:  initiatorID,
		PPCs:       ppcs,
	}
	c.jobs[job.ID] = job
	c.Metrics.jobScheduled(len(c.jobs))
	c.Log.Debug(ctx, "job scheduled", "job", job.ID, "domain", domain,
		"server", addr, "ppcs", len(ppcs))
	return job, nil
}

// JobPPCs returns the PPC list snapshotted for a job — what the
// Coordinator forwards to the selected Measurement server.
func (c *Coordinator) JobPPCs(jobID string) ([]PeerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("coordinator: unknown job %s", jobID)
	}
	return job.PPCs, nil
}

// JobDone is step 4: the Measurement server reports completion and the
// server's pending counter decreases.
func (c *Coordinator) JobDone(jobID string) error {
	c.mu.Lock()
	job, ok := c.jobs[jobID]
	if ok {
		delete(c.jobs, jobID)
		c.Metrics.jobDone(len(c.jobs))
		c.verdictDoneLocked(job, time.Now())
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("coordinator: unknown job %s", jobID)
	}
	return c.Servers.Done(job.ServerAddr)
}

// RequeueLapsed reassigns every job whose Measurement server stopped
// heartbeating to an online server, reconciling the pending counters —
// the Sect. 10.3 corrective measure for servers that die mid-check. Jobs
// stay put when no online server exists (the next sweep retries). It
// returns the number of jobs moved.
func (c *Coordinator) RequeueLapsed() int {
	return len(c.requeueLapsedMoves())
}

// requeueLapsedMoves is RequeueLapsed reporting each (job, new server)
// move so an HA reaper can replicate the reassignments to the standbys.
func (c *Coordinator) requeueLapsedMoves() []jobMove {
	c.mu.Lock()
	var lapsed []string
	for id, job := range c.jobs {
		if !c.Servers.IsOnline(job.ServerAddr) {
			lapsed = append(lapsed, id)
		}
	}
	c.mu.Unlock()

	var moves []jobMove
	for _, id := range lapsed {
		addr, err := c.Servers.Assign()
		if err != nil {
			break // nowhere to go; keep the jobs for the next sweep
		}
		c.mu.Lock()
		job, ok := c.jobs[id]
		if !ok || c.Servers.IsOnline(job.ServerAddr) {
			// Finished or rescued while we were assigning: return the slot.
			c.mu.Unlock()
			c.Servers.Done(addr)
			continue
		}
		old := job.ServerAddr
		job.ServerAddr = addr
		// Whoever attached to this job is waiting on the lapsed server;
		// nobody new should join them.
		c.verdictDropLocked(job)
		c.mu.Unlock()
		c.Servers.Done(old)
		c.Metrics.jobRequeued()
		c.Log.Info(context.Background(), "job requeued from lapsed server",
			"job", id, "from", old, "to", addr)
		moves = append(moves, jobMove{ID: id, Server: addr})
	}
	return moves
}

// SetJobIDPrefix re-keys newly minted job IDs and restarts the sequence
// counter. Under HA every promotion installs the new term's prefix, so a
// deposed primary that briefly keeps accepting cannot collide with IDs
// minted by its successor.
func (c *Coordinator) SetJobIDPrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prefix != c.idPrefix {
		c.idPrefix = prefix
		c.nextJob = 0
	}
}

// DropJob rolls an accepted job back out of the tracker: the primary's
// undo path when replication fails after NewJob succeeded, and the
// submitter's when the Measurement server refused the check — so a job
// nobody will run neither lingers as a phantom pending check nor keeps
// collecting duplicates in the verdict index.
func (c *Coordinator) DropJob(id string) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if ok {
		delete(c.jobs, id)
		c.verdictDropLocked(job)
	}
	n := len(c.jobs)
	c.mu.Unlock()
	if !ok {
		return
	}
	c.Servers.Done(job.ServerAddr)
	c.Metrics.jobDone(n)
	c.Log.Warn(context.Background(), "job dropped before it ran", "job", id)
}

// RestoreJob installs a replicated job, bumping the target server's
// pending counter so the scheduler's view matches the primary's. It is
// idempotent by job ID: a job that already exists locally — because the
// reaper requeued it, or a duplicated log replay delivered it twice —
// keeps its current assignment and is not double-counted.
func (c *Coordinator) RestoreJob(job Job) {
	c.mu.Lock()
	if _, exists := c.jobs[job.ID]; exists {
		c.mu.Unlock()
		return
	}
	j := job
	c.jobs[job.ID] = &j
	n := len(c.jobs)
	c.mu.Unlock()
	c.Servers.Bump(job.ServerAddr)
	c.Metrics.jobScheduled(n)
}

// RestoreDone applies a replicated completion; unknown IDs (already
// applied, or the job was dropped) are ignored.
func (c *Coordinator) RestoreDone(id string) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if ok {
		delete(c.jobs, id)
	}
	n := len(c.jobs)
	c.mu.Unlock()
	if !ok {
		return
	}
	c.Servers.Done(job.ServerAddr)
	c.Metrics.jobDone(n)
}

// RestoreMove applies a replicated requeue, re-pointing the job and
// reconciling both servers' pending counters. A job already on the
// target server (the local reaper won the race) is left untouched.
func (c *Coordinator) RestoreMove(id, addr string) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	if !ok || job.ServerAddr == addr {
		c.mu.Unlock()
		return
	}
	old := job.ServerAddr
	job.ServerAddr = addr
	c.mu.Unlock()
	c.Servers.Done(old)
	c.Servers.Bump(addr)
	c.Metrics.jobRequeued()
}

// RestorePeer installs a replicated PPC registration without the
// geolocation lookup (the primary already resolved it).
func (c *Coordinator) RestorePeer(info PeerInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.peers[info.ID]; !exists {
		c.order = append(c.order, info.ID)
	}
	c.peers[info.ID] = info
	c.Metrics.setPeersOnline(len(c.peers))
}

// Ring returns the replicated shard ring state: its version and opaque
// encoded form (nil if no ring was ever published).
func (c *Coordinator) Ring() (int64, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ringVer, c.ringRaw
}

// RestoreRing installs a replicated ring update. Versions totally order
// ring epochs, so replays and reordered applies keep the highest.
func (c *Coordinator) RestoreRing(version int64, raw []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version <= c.ringVer {
		return
	}
	c.ringVer = version
	c.ringRaw = append([]byte(nil), raw...)
}

// ResetReplicated clears all replicated control-plane state ahead of a
// full log replay (an ha.StateMachine Reset). The whitelist keeps its
// seed domains: Whitelist.Add is a set insert, so replaying additions is
// naturally idempotent.
func (c *Coordinator) ResetReplicated() {
	c.mu.Lock()
	c.jobs = make(map[string]*Job)
	c.peers = make(map[string]PeerInfo)
	c.order = nil
	c.rrPeer = make(map[string]int)
	c.nextJob = 0
	c.ringVer = 0
	c.ringRaw = nil
	c.verdicts = make(map[verdictKey]*verdict)
	c.doneQ = nil
	c.Metrics.setVerdictEntries(0)
	c.Metrics.setPeersOnline(0)
	c.mu.Unlock()
	c.Servers.ResetServers()
}

// StartReaper sweeps for jobs stranded on lapsed servers every interval
// until the returned stop function is called. Run it with an interval in
// the order of the heartbeat timeout.
func (c *Coordinator) StartReaper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval) // lint:allow background reaper, not a request path
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.RequeueLapsed()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// PendingJobs returns the number of tracked in-flight jobs.
func (c *Coordinator) PendingJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

// DoppelgangerState redeems a bearer token (step 3.4). Identity of the
// caller is deliberately not recorded: peers reach this endpoint through
// an anonymity channel so the Coordinator cannot map peers to clusters.
func (c *Coordinator) DoppelgangerState(token string) (map[string]string, error) {
	if c.Dopps == nil {
		return nil, doppelganger.ErrUnknownToken
	}
	return c.Dopps.ClientState(token)
}
