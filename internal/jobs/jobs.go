package jobs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/obs"
)

// Executor runs one job. kind and request are exactly what Submit was
// given; the returned JSON becomes Record.Result. The executor must honor
// ctx: it is canceled by Cancel and by Close (shutdown), and an execution
// that returns after ctx fires during shutdown is re-enqueued, not failed.
// Executors run concurrently from up to Config.Workers dispatchers.
type Executor func(ctx context.Context, kind string, request json.RawMessage) (json.RawMessage, error)

// Store is the durable job-record store (implemented by internal/store;
// the interface is defined here with opaque payloads so this package
// depends only on the standard library). All methods must be safe for
// concurrent use.
type Store interface {
	// PutJob durably writes (or supersedes) the record payload under the
	// job ID.
	PutJob(id uint64, payload []byte) error
	// GetJob returns the live record payload for id, if any.
	GetJob(id uint64) ([]byte, bool, error)
	// EachJob calls fn for every live job record. A non-nil error from fn
	// aborts the iteration and is returned.
	EachJob(fn func(id uint64, payload []byte) error) error
}

// Config tunes a Manager. The zero value selects sensible defaults.
type Config struct {
	// QueueDepth bounds accepted-but-unstarted jobs (default 1024); Submit
	// fails with ErrQueueFull beyond it. Retries and recovered jobs are
	// already accepted and bypass the bound.
	QueueDepth int
	// Workers is the dispatcher concurrency (default 4): how many async
	// jobs execute at once. Executions land on the service engine's worker
	// pool, so this bounds in-flight async work, not CPU.
	Workers int
	// Retries is how many times a failed job is re-run before it is
	// recorded failed (default 0: one attempt total).
	Retries int
	// Retention bounds the terminal (done/failed/canceled) records kept in
	// memory (default 4096); beyond it the oldest terminal records are
	// evicted, and — when a Store is configured — Get transparently falls
	// back to the durable record, so results stay fetchable. Queued and
	// running jobs are never evicted.
	Retention int
	// Store, when non-nil, makes jobs durable: a submission is persisted
	// before it is acknowledged, every state transition is persisted, and
	// Recover re-enqueues interrupted work after a restart. A nil Store
	// keeps the manager fully in-memory.
	Store Store
	// Obs, when non-nil, registers the manager's metric families:
	// func-backed counters/gauges over the existing Stats fields (read at
	// scrape time) plus execution, queue-wait, and persist latency
	// histograms.
	Obs *obs.Registry
	// Logger, when non-nil, logs the stack of every job that fails with a
	// panic, its Executor's own or one it returns as an *obs.PanicError.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Retention <= 0 {
		c.Retention = 4096
	}
	return c
}

// Stats is a snapshot of the manager's job population and counters.
// Queued and Running are live gauges; Done, Failed, and Canceled are
// cumulative over everything this manager has observed (including
// records loaded by Recover — in-memory eviction does not decrement
// them). Submitted, Retries, PersistErrors, and RecoverSkipped count
// events in this process's lifetime.
type Stats struct {
	Submitted     uint64 `json:"submitted"`
	Queued        int64  `json:"queued"`
	Running       int64  `json:"running"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Canceled      uint64 `json:"canceled"`
	Retries       uint64 `json:"retries"`
	PersistErrors uint64 `json:"persist_errors"`
	// RecoverSkipped counts durable records Recover could not decode and
	// left on disk untouched (visible to locshortctl, never re-run).
	RecoverSkipped uint64 `json:"recover_skipped"`
	// Panics counts Executor calls that panicked; each such job also
	// counts in Failed.
	Panics uint64 `json:"panics"`
}

// Errors returned by Submit, Cancel, and lookup paths. The HTTP layer maps
// them to statuses (429, 503, 404, 409).
var (
	ErrQueueFull  = errors.New("jobs: queue full")
	ErrClosed     = errors.New("jobs: manager closed")
	ErrUnknownJob = errors.New("jobs: unknown job id")
	ErrFinished   = errors.New("jobs: job already finished")
)

// managed is one job plus its runtime-only state.
type managed struct {
	rec    Record
	done   chan struct{}      // closed exactly when rec.State turns terminal
	cancel context.CancelFunc // non-nil while running

	// seq stamps each persisted version (guarded by Manager.mu); written
	// is the highest version on disk (guarded by Manager.persistMu). The
	// pair lets transitions encode under mu but fsync outside it without
	// ever letting a stale version supersede a newer one.
	seq     uint64
	written uint64
}

// persistReq is one captured record version awaiting its durable write.
type persistReq struct {
	j   *managed
	rec Record
	seq uint64
}

// Manager is the asynchronous job manager: a bounded queue of durable job
// records drained by a fixed set of dispatcher goroutines through an
// Executor. Lifecycle: New → (Recover) → Start → ... → Close, mirroring
// the engine's New/WarmStart pattern. Submit works before Start (jobs
// accumulate; locshortd submits only after Start, but tests and drain
// tooling rely on it). All exported methods are safe for concurrent use.
type Manager struct {
	cfg  Config
	exec Executor

	// mu guards the in-memory job state below; cond signals dispatchers
	// when pending grows (and broadcasts on Close). Durable writes happen
	// OUTSIDE mu (see flush): a transition encodes its snapshot under mu
	// and fsyncs under persistMu only, so submissions, lookups, and stats
	// never convoy behind disk flushes. The one exception is Submit,
	// whose persist is part of its contract (no 202 without a durable
	// record) and is ordered before the job becomes visible at all.
	mu      sync.Mutex
	cond    *sync.Cond
	recs    map[ID]*managed
	order   []ID // creation order, for List; compacted as evictions accrue
	pending []ID // queued job IDs awaiting a dispatcher
	// terminals is the eviction FIFO: terminal job IDs oldest-first.
	terminals []ID
	evicted   int // order entries no longer in recs, for compaction
	closing   bool
	started   bool

	queuedN  int64
	runningN int64

	submitted  uint64
	doneN      uint64
	failedN    uint64
	canceledN  uint64
	retries    uint64
	recSkipped uint64

	// persistMu serializes durable writes; persistErrs is atomic so the
	// flush path never touches mu, and panics so the dispatcher's recover
	// does not either.
	persistMu   sync.Mutex
	persistErrs atomic.Uint64
	panics      atomic.Uint64

	quit chan struct{} // closed by Close; unblocks Wait
	wg   sync.WaitGroup

	// metrics is nil unless Config.Obs was set.
	metrics *managerMetrics
}

// managerMetrics holds the manager's observed histograms; counters and
// gauges are func-backed over Stats and never dual-written.
type managerMetrics struct {
	execSeconds    *obs.Histogram // executor run time per attempt
	queueWait      *obs.Histogram // submission (or re-queue) to dispatch
	persistSeconds *obs.Histogram // durable record write latency
}

func newManagerMetrics(r *obs.Registry, m *Manager) *managerMetrics {
	mm := &managerMetrics{
		execSeconds: r.Histogram("locshort_jobs_exec_seconds",
			"Executor run time per async job attempt.", nil, nil),
		queueWait: r.Histogram("locshort_jobs_queue_wait_seconds",
			"Time async jobs spent queued before a dispatcher picked them up.", nil, nil),
		persistSeconds: r.Histogram("locshort_jobs_persist_seconds",
			"Durable job-record write latency (includes fsync).", nil, nil),
	}
	stat := func(load func(Stats) float64) func() float64 {
		return func() float64 { return load(m.Stats()) }
	}
	r.CounterFunc("locshort_jobs_submitted_total", "Async jobs accepted this process lifetime.", nil,
		stat(func(s Stats) float64 { return float64(s.Submitted) }))
	r.CounterFunc("locshort_jobs_finished_total", "Async jobs finished, by outcome.", obs.Labels{"outcome": "done"},
		stat(func(s Stats) float64 { return float64(s.Done) }))
	r.CounterFunc("locshort_jobs_finished_total", "Async jobs finished, by outcome.", obs.Labels{"outcome": "failed"},
		stat(func(s Stats) float64 { return float64(s.Failed) }))
	r.CounterFunc("locshort_jobs_finished_total", "Async jobs finished, by outcome.", obs.Labels{"outcome": "canceled"},
		stat(func(s Stats) float64 { return float64(s.Canceled) }))
	r.CounterFunc("locshort_jobs_retries_total", "Failed async job attempts that were re-queued.", nil,
		stat(func(s Stats) float64 { return float64(s.Retries) }))
	r.CounterFunc("locshort_jobs_persist_errors_total", "Failed durable job-record writes (best-effort; alert here).", nil,
		stat(func(s Stats) float64 { return float64(s.PersistErrors) }))
	r.CounterFunc("locshort_jobs_recover_skipped_total", "Durable job records Recover could not decode.", nil,
		stat(func(s Stats) float64 { return float64(s.RecoverSkipped) }))
	r.CounterFunc("locshort_jobs_panics_total", "Async job executions that panicked (recovered; each ends failed).", nil,
		stat(func(s Stats) float64 { return float64(s.Panics) }))
	r.GaugeFunc("locshort_jobs_queued", "Async jobs accepted but not yet dispatched.", nil,
		stat(func(s Stats) float64 { return float64(s.Queued) }))
	r.GaugeFunc("locshort_jobs_running", "Async jobs currently executing.", nil,
		stat(func(s Stats) float64 { return float64(s.Running) }))
	return mm
}

// New creates a manager; no dispatcher runs until Start.
func New(cfg Config, exec Executor) *Manager {
	if exec == nil {
		panic("jobs: nil Executor")
	}
	m := &Manager{
		cfg:  cfg.withDefaults(),
		exec: exec,
		recs: make(map[ID]*managed),
		quit: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if m.cfg.Obs != nil {
		m.metrics = newManagerMetrics(m.cfg.Obs, m)
	}
	return m
}

// Recover loads the durable job records into the manager and re-enqueues
// interrupted work: queued records (accepted but never run, or put back by
// a clean shutdown) and running records (a crash mid-run) both go back to
// the queue; a non-terminal record with a pending cancellation is
// finalized canceled instead. Terminal records load read-only (newest
// first up to Config.Retention) so results stay fetchable across
// restarts. A record that fails to decode is skipped and counted in
// Stats.RecoverSkipped — one bad record must not make the daemon
// unbootable. Returns how many jobs were re-enqueued. Call once, after
// the executor's own state is warm (engine WarmStart) and before Start.
func (m *Manager) Recover() (int, error) {
	if m.cfg.Store == nil {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return 0, errors.New("jobs: Recover must run before Start")
	}
	var loaded []*managed
	err := m.cfg.Store.EachJob(func(id uint64, payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil || rec.ID != ID(id) {
			// Undecodable or mislabeled: leave it on disk (locshortctl can
			// inspect the raw frame; gc carries it), never run it.
			m.recSkipped++
			return nil
		}
		if _, dup := m.recs[rec.ID]; dup {
			return nil
		}
		loaded = append(loaded, &managed{rec: rec, done: make(chan struct{})})
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Re-enqueue in submission order so recovered work drains fairly.
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].rec.CreatedNs < loaded[j].rec.CreatedNs })
	requeued := 0
	for _, j := range loaded {
		if !j.rec.State.Terminal() {
			switch {
			case j.rec.CancelRequested:
				j.rec.State = Canceled
				j.rec.FinishedNs = time.Now().UnixNano()
				m.persistNowLocked(j)
			default:
				// A crash-interrupted run is not charged against the retry
				// budget. Already-queued records re-enqueue as they are —
				// re-persisting an identical record would grow the store
				// by one superseded version per restart.
				if j.rec.State == Running {
					if j.rec.Attempts > 0 {
						j.rec.Attempts--
					}
					j.rec.State = Queued
					j.rec.StartedNs = 0
					m.persistNowLocked(j)
				}
				m.pending = append(m.pending, j.rec.ID)
				m.queuedN++
				requeued++
			}
		}
		if j.rec.State.Terminal() {
			close(j.done)
			m.countTerminalLocked(j.rec.State)
			m.terminals = append(m.terminals, j.rec.ID)
		}
		m.recs[j.rec.ID] = j
		m.order = append(m.order, j.rec.ID)
	}
	m.evictLocked()
	return requeued, nil
}

// Start launches the dispatcher pool. Call exactly once.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closing {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.wg.Add(m.cfg.Workers)
	for i := 0; i < m.cfg.Workers; i++ {
		go m.dispatcher()
	}
}

// Close stops accepting and dispatching. Running executions are canceled
// through their contexts; a run interrupted this way goes durably back to
// queued so Recover re-runs it after the next start — a clean shutdown
// loses no accepted job. Close is idempotent and returns once every
// dispatcher has exited.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closing = true
	close(m.quit)
	for _, j := range m.recs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Submit accepts a job and returns its queued record. When a Store is
// configured the queued record is durable before Submit returns — the
// acceptance (HTTP 202) promises the job survives a crash.
func (m *Manager) Submit(kind string, request json.RawMessage) (Record, error) {
	if kind == "" {
		return Record{}, errors.New("jobs: empty job kind")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return Record{}, ErrClosed
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		return Record{}, ErrQueueFull
	}
	id, err := m.newIDLocked()
	if err != nil {
		return Record{}, err
	}
	j := &managed{
		rec: Record{
			ID:        id,
			Kind:      kind,
			Request:   request,
			State:     Queued,
			CreatedNs: time.Now().UnixNano(),
		},
		done: make(chan struct{}),
	}
	if m.cfg.Store != nil {
		// Unlike later transitions this write is not best-effort: if the
		// queued record cannot be made durable, the job is not accepted.
		// The job is not yet visible to any other goroutine, so writing
		// under mu costs only the submitter's own latency.
		payload, err := EncodeRecord(j.rec)
		if err == nil {
			err = m.cfg.Store.PutJob(uint64(id), payload)
		}
		if err != nil {
			return Record{}, fmt.Errorf("jobs: persist submission: %w", err)
		}
		j.seq, j.written = 1, 1
	}
	m.recs[id] = j
	m.order = append(m.order, id)
	m.pending = append(m.pending, id)
	m.submitted++
	m.queuedN++
	m.cond.Signal()
	return j.rec, nil
}

// newIDLocked draws a fresh random nonzero ID. Caller holds mu.
func (m *Manager) newIDLocked() (ID, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("jobs: id generation: %w", err)
		}
		id := ID(binary.BigEndian.Uint64(b[:]))
		if id == 0 {
			continue
		}
		if _, taken := m.recs[id]; !taken {
			return id, nil
		}
	}
}

// Get returns a snapshot of the job's record. Terminal records evicted
// from memory under Config.Retention are served from the durable store.
func (m *Manager) Get(id ID) (Record, bool) {
	m.mu.Lock()
	j, ok := m.recs[id]
	var rec Record
	if ok {
		rec = j.rec
	}
	m.mu.Unlock()
	if ok {
		return rec, true
	}
	if st := m.cfg.Store; st != nil {
		payload, ok, err := st.GetJob(uint64(id))
		if err == nil && ok {
			if rec, err := DecodeRecord(payload); err == nil && rec.ID == id {
				return rec, true
			}
		}
	}
	return Record{}, false
}

// Wait blocks until the job reaches a terminal state, ctx is done, or the
// manager closes, and returns the latest snapshot either way (the caller
// distinguishes by Record.State). ok is false for an unknown ID.
func (m *Manager) Wait(ctx context.Context, id ID) (Record, bool) {
	m.mu.Lock()
	j, ok := m.recs[id]
	m.mu.Unlock()
	if !ok {
		// Evicted terminal records (or an unknown ID) resolve through Get.
		return m.Get(id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	case <-m.quit:
	}
	return m.Get(id)
}

// List returns snapshots of every in-memory job in creation order
// (recovered records first, by their original submission time). Terminal
// records past Config.Retention have been evicted and appear only in the
// durable store (locshortctl jobs ls).
func (m *Manager) List() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.recs))
	for _, id := range m.order {
		if j, ok := m.recs[id]; ok {
			out = append(out, j.rec)
		}
	}
	return out
}

// Cancel cancels a job: a queued job finalizes immediately; a running job
// gets its context canceled and finalizes when the executor returns
// (best-effort — an execution that completes despite the cancellation is
// recorded done). Returns the post-cancel snapshot; ErrUnknownJob for an
// unknown ID, ErrFinished (with the snapshot) if the job was already
// terminal.
func (m *Manager) Cancel(id ID) (Record, error) {
	var pp persistReq
	m.mu.Lock()
	j, ok := m.recs[id]
	if !ok {
		m.mu.Unlock()
		if rec, found := m.Get(id); found {
			return rec, ErrFinished // evicted records are terminal by construction
		}
		return Record{}, ErrUnknownJob
	}
	var rec Record
	var err error
	switch j.rec.State {
	case Queued:
		j.rec.CancelRequested = true
		j.rec.State = Canceled
		j.rec.FinishedNs = time.Now().UnixNano()
		m.queuedN--
		m.countTerminalLocked(Canceled)
		m.terminals = append(m.terminals, id)
		pp = m.snapshotLocked(j)
		close(j.done)
		m.evictLocked()
	case Running:
		if !j.rec.CancelRequested {
			j.rec.CancelRequested = true
			// Persisted so a crash before the dispatcher finalizes still
			// cancels (Recover sees the flag) instead of re-running.
			pp = m.snapshotLocked(j)
			if j.cancel != nil {
				j.cancel()
			}
		}
	default:
		err = ErrFinished
	}
	rec = j.rec
	m.mu.Unlock()
	m.flush(pp)
	return rec, err
}

// Stats snapshots the job gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Submitted:      m.submitted,
		Queued:         m.queuedN,
		Running:        m.runningN,
		Done:           m.doneN,
		Failed:         m.failedN,
		Canceled:       m.canceledN,
		Retries:        m.retries,
		PersistErrors:  m.persistErrs.Load(),
		RecoverSkipped: m.recSkipped,
		Panics:         m.panics.Load(),
	}
}

func (m *Manager) countTerminalLocked(s State) {
	switch s {
	case Done:
		m.doneN++
	case Failed:
		m.failedN++
	case Canceled:
		m.canceledN++
	}
}

// evictLocked drops the oldest terminal records past Config.Retention and
// compacts order once evictions dominate it. Caller holds mu.
func (m *Manager) evictLocked() {
	for len(m.terminals) > m.cfg.Retention {
		id := m.terminals[0]
		m.terminals = m.terminals[1:]
		if _, ok := m.recs[id]; ok {
			delete(m.recs, id)
			m.evicted++
		}
	}
	if m.evicted*2 > len(m.order) {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.recs[id]; ok {
				kept = append(kept, id)
			}
		}
		m.order = kept
		m.evicted = 0
	}
}

// snapshotLocked stamps and captures the job's current record for a
// durable write performed outside mu. Caller holds mu.
func (m *Manager) snapshotLocked(j *managed) persistReq {
	if m.cfg.Store == nil {
		return persistReq{}
	}
	j.seq++
	return persistReq{j: j, rec: j.rec, seq: j.seq}
}

// flush performs the durable write for a snapshot, outside mu. persistMu
// serializes writers and the seq guard drops a version that a newer
// write already superseded, so records on disk never go backwards.
// Best-effort: failures are counted, not surfaced — the in-memory
// transition already happened, exactly like the engine's detached store
// writes.
func (m *Manager) flush(p persistReq) {
	if p.j == nil {
		return
	}
	payload, err := EncodeRecord(p.rec)
	if err != nil {
		m.persistErrs.Add(1)
		return
	}
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	if p.seq <= p.j.written {
		return
	}
	start := time.Now()
	if err := m.cfg.Store.PutJob(uint64(p.rec.ID), payload); err != nil {
		m.persistErrs.Add(1)
		return
	}
	if m.metrics != nil {
		m.metrics.persistSeconds.Observe(time.Since(start))
	}
	p.j.written = p.seq
}

// persistNowLocked writes synchronously under mu — only for Recover's
// single-threaded boot path, where there is nothing to convoy.
func (m *Manager) persistNowLocked(j *managed) {
	m.flush(m.snapshotLocked(j))
}

// execute calls the Executor under a recover: a panic comes back as the
// job's *obs.PanicError, so it fails that job instead of the process.
func (m *Manager) execute(ctx context.Context, kind string, request json.RawMessage) (result json.RawMessage, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.panics.Add(1)
			err = obs.Recovered(v)
		}
	}()
	return m.exec(ctx, kind, request)
}

// dispatcher is one worker: pop a queued job, execute it, finalize.
func (m *Manager) dispatcher() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closing {
			m.cond.Wait()
		}
		if m.closing {
			m.mu.Unlock()
			return
		}
		id := m.pending[0]
		m.pending = m.pending[1:]
		j := m.recs[id]
		if j == nil || j.rec.State != Queued {
			// Canceled while pending; Cancel already finalized it.
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.rec.State = Running
		j.rec.Attempts++
		j.rec.StartedNs = time.Now().UnixNano()
		if m.metrics != nil && j.rec.Attempts == 1 {
			// First attempt only: a retry's CreatedNs is the original
			// submission, which would charge the failed run to queue wait.
			m.metrics.queueWait.Observe(time.Duration(j.rec.StartedNs - j.rec.CreatedNs))
		}
		m.queuedN--
		m.runningN++
		pp := m.snapshotLocked(j)
		kind, request := j.rec.Kind, j.rec.Request
		m.mu.Unlock()
		m.flush(pp)

		execStart := time.Now()
		result, err := m.execute(ctx, kind, request)
		if m.metrics != nil {
			m.metrics.execSeconds.Observe(time.Since(execStart))
		}
		// Read before cancel(): whether the run was interrupted through
		// its context (Close or Cancel), as opposed to failing on its own
		// while a shutdown happened to be in progress.
		interrupted := ctx.Err() != nil
		cancel()

		var pe *obs.PanicError
		panicked := errors.As(err, &pe)
		if panicked {
			m.cfg.Logger.Error("job_panic", "id", id.String(), "kind", kind, "err", err.Error(), "stack", string(pe.Stack))
		}

		m.mu.Lock()
		j.cancel = nil
		m.runningN--
		terminal := true
		switch {
		case err == nil:
			j.rec.State = Done
			j.rec.Result = result
			j.rec.Error = ""
			m.countTerminalLocked(Done)
		case panicked:
			// A panic is a bug, not a transient failure: no retry, and
			// the durable record is terminal, so Recover never re-runs it.
			j.rec.State = Failed
			j.rec.Error = err.Error()
			m.countTerminalLocked(Failed)
		case m.closing && interrupted && !j.rec.CancelRequested:
			// Shutdown interrupted the run: durably back to queued so
			// Recover re-enqueues it after the next start. Not charged as
			// an attempt, not terminal (done stays open; waiters are
			// released via m.quit).
			j.rec.State = Queued
			j.rec.StartedNs = 0
			j.rec.Attempts--
			m.queuedN++
			terminal = false
		case j.rec.CancelRequested:
			j.rec.State = Canceled
			j.rec.Error = ""
			m.countTerminalLocked(Canceled)
		case j.rec.Attempts <= m.cfg.Retries:
			m.retries++
			j.rec.State = Queued
			j.rec.StartedNs = 0
			j.rec.Error = err.Error()
			m.queuedN++
			m.pending = append(m.pending, id)
			m.cond.Signal()
			terminal = false
		default:
			j.rec.State = Failed
			j.rec.Error = err.Error()
			m.countTerminalLocked(Failed)
		}
		if terminal {
			j.rec.FinishedNs = time.Now().UnixNano()
			m.terminals = append(m.terminals, id)
		}
		pp = m.snapshotLocked(j)
		if terminal {
			close(j.done)
			m.evictLocked()
		}
		m.mu.Unlock()
		m.flush(pp)
	}
}
