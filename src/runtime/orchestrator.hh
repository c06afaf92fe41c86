/**
 * @file
 * Crash-safe sweep orchestrator.
 *
 * The paper's result grids (Figs 4-15) are parameter sweeps; at
 * paper/fleet scale a sweep is a long-running fan-out of worker
 * *processes*, and anything a process can do wrong — crash, hang,
 * get OOM-killed, write half a result file — will happen somewhere
 * in the grid. The orchestrator treats those as routine:
 *
 *  - every task's lifecycle (pending / running / done / failed, with
 *    attempt counts) is journaled to disk, checkpointed after every
 *    state change via write-temp-then-rename under a sidecar flock,
 *    so killing the
 *    orchestrator at any instant loses at most the in-flight tasks,
 *    which a resumed run re-executes;
 *  - a watchdog enforces a per-task wall-clock timeout, escalating
 *    SIGTERM -> SIGKILL on the worker's whole process group;
 *  - failed and hung tasks are retried under a RetryPolicy (capped
 *    exponential backoff + decorrelated jitter, runtime/retry.hh);
 *  - task output files are validated before a task counts as done,
 *    so a worker that exits 0 after corrupting its output is retried
 *    like any other failure;
 *  - when a task exhausts its attempts the sweep *completes anyway*:
 *    the merged results JSON covers every done task (ordered by task
 *    definition, byte-stable across worker counts and retries) and
 *    the manifest records per-task coverage, attempts, and failure
 *    reasons. The run exits nonzero for incomplete coverage only
 *    when the caller asks for --strict semantics.
 *
 * The orchestrator knows nothing about what tasks compute: a task is
 * an argv to exec plus the path of the output file it must produce.
 * tools/varsched_sweep.cc supplies the paper grids and the chaos
 * worker mode.
 */

#ifndef VARSCHED_RUNTIME_ORCHESTRATOR_HH
#define VARSCHED_RUNTIME_ORCHESTRATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/retry.hh"

namespace varsched
{

/** One unit of sweep work: a command that must produce a file. */
struct SweepTask
{
    /** Stable unique id; the journal and manifest key. */
    std::string id;
    /** Command to exec (argv[0] resolved through PATH). */
    std::vector<std::string> argv;
    /** File the worker must produce for the task to count as done. */
    std::string outputPath;
};

/** Journaled lifecycle state of one task. */
enum class TaskState
{
    Pending,
    Running,
    Done,
    Failed, ///< Exhausted its attempts.
};

/** Name used in the journal/manifest ("pending", "done", ...). */
const char *taskStateName(TaskState state);

/** Journal record of one task. */
struct TaskRecord
{
    TaskState state = TaskState::Pending;
    /** Completed runs so far (crashes, timeouts, and successes). */
    std::size_t attempts = 0;
    /** Exit status of the last finished run (shell convention). */
    int lastExit = 0;
    /** Runs the watchdog had to kill. */
    std::size_t timeouts = 0;
    /** Runs whose output file failed validation. */
    std::size_t corruptOutputs = 0;
    /** Wall-clock seconds spent across completed runs of this task
     *  (journaled, so resumed sweeps keep accumulating). */
    double busySec = 0.0;
    /** Retry-backoff seconds this task was held before re-launches. */
    double backoffSec = 0.0;
};

/** Orchestrator knobs. */
struct OrchestratorConfig
{
    /** Concurrent worker processes (clamped to at least 1). */
    std::size_t maxWorkers = 4;
    /** Retry schedule; retry.maxAttempts caps runs per task. */
    RetryPolicy retry;
    /** Per-task wall-clock timeout, seconds; <= 0 disables. */
    double taskTimeoutSec = 0.0;
    /** Grace between SIGTERM and SIGKILL, seconds. */
    double killGraceSec = 2.0;
    /** Journal path; empty disables journaling (and resume). */
    std::string journalPath;
    /** Seed of the jitter stream (reproducible backoff schedule). */
    std::uint64_t retrySeed = 2026;
    /**
     * Output validator; a task only counts as done when its output
     * file passes. Default: looksLikeCompleteJson.
     */
    std::function<bool(const SweepTask &, const std::string &path)>
        validateOutput;
    /** Main-loop poll period, seconds (tests shrink it). */
    double pollSec = 0.02;
};

/** Coverage summary of a finished (or interrupted) sweep. */
struct SweepReport
{
    std::size_t done = 0;
    std::size_t failed = 0;  ///< Exhausted attempts.
    std::size_t pending = 0; ///< Only nonzero after an interrupt.
    /** Worker processes launched by *this* orchestrator run. */
    std::size_t launches = 0;
    /** True when run() returned because stop was requested. */
    bool interrupted = false;

    bool complete() const { return failed == 0 && pending == 0; }
};

/**
 * Take an exclusive flock on the sidecar `<path>.lock`, safe against
 * a peer unlinking the lock file: after acquiring, the fd's inode is
 * verified against the path and the acquisition retried if a stale
 * (unlinked) lock was won. Returns the lock fd, or -1.
 */
int acquireSidecarLock(const std::string &path);

/**
 * Release a sidecar lock from acquireSidecarLock. With @p unlinkStale
 * the lock file is removed first (while still held) — safe because
 * every acquirer re-verifies the inode — so crashed runs do not
 * accumulate stale `.lock` litter next to their data files.
 */
void releaseSidecarLock(int lockFd, const std::string &path,
                        bool unlinkStale);

/**
 * Write @p content to @p path atomically: temp file in the same
 * directory, fsync, rename. Readers see the old bytes or the new
 * bytes, never a torn file.
 */
bool atomicWriteFile(const std::string &path,
                     const std::string &content);

/** Whole file into @p out; false when it cannot be read. */
bool readWholeFile(const std::string &path, std::string &out);

/**
 * Cheap structural check that @p path holds one complete JSON value:
 * non-empty, braces/brackets balance to zero depth, strings closed.
 * Catches the truncated-mid-write and garbage-suffix corruptions the
 * chaos harness injects without needing a JSON parser.
 */
bool looksLikeCompleteJson(const std::string &path);

/**
 * Install SIGINT/SIGTERM handlers that ask every SweepOrchestrator
 * (and the caller, via orchestratorStopRequested()) to wind down:
 * stop launching, terminate workers, checkpoint, and return.
 */
void installStopSignalHandlers();

/** True once a stop signal arrived or requestStop() was called. */
bool orchestratorStopRequested();

/** Programmatic equivalent of a stop signal (tests use this). */
void orchestratorRequestStop();

/** Reset the stop flag (between runs in one process; tests). */
void orchestratorClearStop();

/** Fans a task list across worker processes; see file comment. */
class SweepOrchestrator
{
  public:
    SweepOrchestrator(std::vector<SweepTask> tasks,
                      OrchestratorConfig config);

    /**
     * Load the journal (when configured and present) and adopt prior
     * state: done tasks with a valid output file stay done, running
     * tasks from a killed orchestrator become pending again (their
     * attempt counts kept), failed tasks whose attempts fit under the
     * current policy become retryable. A journal that fails to parse
     * is quarantined to `<path>.corrupt` and the sweep starts fresh.
     * Called by run(); exposed for tests.
     */
    void loadJournal();

    /**
     * Run the sweep to completion (every task done or failed), or
     * until a stop is requested. Blocking; reaps all children before
     * returning.
     */
    SweepReport run();

    /** Per-task records, keyed by task id (journal view). */
    const std::map<std::string, TaskRecord> &records() const
    {
        return records_;
    }

    /**
     * Merge the output files of all done tasks, in task-definition
     * order, into one JSON array at @p path (temp-then-rename).
     * Byte-stable: depends only on which tasks are done and their
     * output bytes, not on worker count, retries, or timing.
     */
    bool writeMergedOutputs(const std::string &path) const;

    /**
     * Write the coverage/failure manifest: per-task state, attempts,
     * last exit, timeout and corrupt-output counts, plus sweep totals
     * (including launches, so `sum(attempts) - priorAttempts ==
     * launches` is checkable by the chaos harness).
     */
    bool writeManifest(const std::string &path,
                       const SweepReport &report) const;

  private:
    struct Child;

    void checkpoint();
    void reapFinished(std::vector<Child> &running);
    void enforceTimeouts(std::vector<Child> &running, double nowSec);
    void launchEligible(std::vector<Child> &running, double nowSec);
    void terminateAll(std::vector<Child> &running);
    void finishTask(const std::string &id, int exitStatus,
                    bool timedOut, double nowSec, double attemptSec);

    std::vector<SweepTask> tasks_;
    OrchestratorConfig config_;
    std::map<std::string, TaskRecord> records_;
    /** Earliest next-launch time per task id (backoff schedule). */
    std::map<std::string, double> notBefore_;
    /** Previous jittered delay per task id (decorrelated jitter). */
    std::map<std::string, double> prevDelay_;
    std::size_t launches_ = 0;
    /** Attempts carried in from a resumed journal. */
    std::size_t priorAttempts_ = 0;
};

} // namespace varsched

#endif // VARSCHED_RUNTIME_ORCHESTRATOR_HH
