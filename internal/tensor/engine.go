package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine selects the compute-kernel implementation behind Conv2D,
// Conv2DBackward and the dense GEMM helpers.
//
// EngineGEMM (the default) lowers every convolution to im2col plus a
// cache-blocked, goroutine-parallel GEMM — the same formulation the paper's
// accelerator executes (Tab. 1) — and draws its scratch buffers from a
// pooled arena so steady-state training performs no large allocations.
//
// EngineNaive is the direct 7-loop reference oracle: slow, single-threaded,
// allocating fresh tensors on every call, and kept precisely because it is
// trivially auditable. Equivalence tests pin the GEMM engine against it.
type Engine int32

const (
	// EngineGEMM routes convolutions through im2col + blocked parallel GEMM.
	EngineGEMM Engine = iota
	// EngineNaive routes convolutions through the direct reference loops.
	EngineNaive
)

func (e Engine) String() string {
	switch e {
	case EngineGEMM:
		return "gemm"
	case EngineNaive:
		return "naive"
	default:
		return fmt.Sprintf("Engine(%d)", int32(e))
	}
}

// ParseEngine converts a flag value ("naive" or "gemm") into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "gemm":
		return EngineGEMM, nil
	case "naive":
		return EngineNaive, nil
	default:
		return EngineGEMM, fmt.Errorf("tensor: unknown engine %q (want naive or gemm)", s)
	}
}

// curEngine and numThreads are process-wide kernel configuration. They are
// atomics so tests and long-running servers can flip engines while worker
// goroutines are in flight without a data race; a kernel reads its
// configuration once at entry.
var (
	curEngine  atomic.Int32 // zero value == EngineGEMM
	numThreads atomic.Int32 // 0 == GOMAXPROCS
)

// SetEngine installs e as the process-wide kernel engine and returns the
// previous one (handy for defer-restore in tests and benchmarks).
func SetEngine(e Engine) Engine { return Engine(curEngine.Swap(int32(e))) }

// CurrentEngine returns the engine Conv2D and friends will dispatch to.
func CurrentEngine() Engine { return Engine(curEngine.Load()) }

// SetThreads bounds the number of chunks a single kernel invocation splits
// its work into, each run by a kernel pool worker (see parallelFor). n <= 0
// means "use GOMAXPROCS". Returns the previous setting.
//
// Results are bit-identical for every thread count: parallelism only
// partitions independent output rows / samples, never a reduction.
func SetThreads(n int) int { return int(numThreads.Swap(int32(n))) }

// Threads returns the resolved kernel parallelism.
func Threads() int {
	if n := int(numThreads.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// rangeJob is one parallel kernel section: run computes items [lo,hi).
// Jobs are small structs of the kernel's arguments, so a section needs no
// closure.
type rangeJob interface{ run(lo, hi int) }

// kernelTask hands one chunk of a section to a pool worker.
type kernelTask struct {
	job    rangeJob
	lo, hi int
	done   *sync.WaitGroup
}

// The kernel worker pool: goroutines that run handed-off chunks. They are
// started on first use, up to the largest Threads() any section has
// needed, and live as long as the process, like the runtime's own workers.
var (
	kernelTasks = make(chan kernelTask)
	workersMu   sync.Mutex
	workers     atomic.Int32
	waitGroups  = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// ensureWorkers starts pool workers until at least k exist.
func ensureWorkers(k int) {
	if int(workers.Load()) >= k {
		return
	}
	workersMu.Lock()
	defer workersMu.Unlock()
	for int(workers.Load()) < k {
		go func() {
			for t := range kernelTasks {
				t.job.run(t.lo, t.hi)
				t.done.Done()
			}
		}()
		workers.Add(1)
	}
}

// parallelFor splits [0,n) into at most Threads() contiguous chunks and runs
// job on each. Every chunk goes to an idle pool worker, or runs on the
// calling goroutine when all workers are busy (with another caller's
// section, say); the caller then waits. Handing off every chunk, rather
// than keeping one, lets the caller's processor pick up the last-readied
// worker the moment the caller blocks. The partition depends only on n and
// Threads(), never on which goroutine runs a chunk, so results are
// identical either way. Each chunk is a contiguous [lo,hi) range, letting
// jobs hold one scratch slab per chunk. With one thread (or one chunk) it
// runs inline. Once the workers exist no goroutine starts and, with a
// pooled job (runPooled), nothing is allocated: steady-state training at
// any thread count leaves no garbage behind.
func parallelFor(n int, job rangeJob) {
	t := min(Threads(), n)
	if t <= 1 {
		if n > 0 {
			job.run(0, n)
		}
		return
	}
	ensureWorkers(t)
	chunk := (n + t - 1) / t
	wg := waitGroups.Get().(*sync.WaitGroup)
	for lo := 0; lo < n; lo += chunk {
		task := kernelTask{job: job, lo: lo, hi: min(lo+chunk, n), done: wg}
		wg.Add(1)
		select {
		case kernelTasks <- task:
		default:
			job.run(task.lo, task.hi)
			wg.Done()
		}
	}
	wg.Wait()
	waitGroups.Put(wg)
}

// jobPool recycles one job type's descriptors across parallel sections.
type jobPool[J any] struct{ p sync.Pool }

// runPooled runs job j over [0,n) through parallelFor from a pooled copy,
// so the section allocates nothing once the pool is warm. The copy is
// cleared before it goes back, so the pool pins no tensors.
func runPooled[J any, P interface {
	*J
	rangeJob
}](n int, pool *jobPool[J], j J) {
	pj, _ := pool.p.Get().(*J)
	if pj == nil {
		pj = new(J)
	}
	*pj = j
	parallelFor(n, P(pj))
	var zero J
	*pj = zero
	pool.p.Put(pj)
}
