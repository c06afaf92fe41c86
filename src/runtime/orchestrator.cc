#include "runtime/orchestrator.hh"

#include "runtime/metrics.hh"
#include "runtime/trace.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace varsched
{

namespace
{

/** Monotonic wall-clock seconds. */
double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

volatile std::sig_atomic_t g_stopRequested = 0;

void
stopSignalHandler(int)
{
    g_stopRequested = 1;
}

/** Seed of the retry-jitter stream (reproducible backoff schedule). */
constexpr std::uint64_t kRetrySeed = 2026;

/** FNV-1a over the task id: a stable per-task jitter-stream tag. */
std::uint64_t
idHash(const std::string &id)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : id) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Extract `"key": value` from one journal line (a format this file
 * writes itself). Returns false when the key is absent.
 */
bool
extractField(const std::string &line, const std::string &key,
             std::string &value)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t begin = at + needle.size();
    while (begin < line.size() && line[begin] == ' ')
        ++begin;
    if (begin >= line.size())
        return false;
    std::size_t end = begin;
    if (line[begin] == '"') {
        end = line.find('"', begin + 1);
        if (end == std::string::npos)
            return false;
        value = line.substr(begin + 1, end - begin - 1);
    } else {
        while (end < line.size() && line[end] != ',' &&
               line[end] != '}')
            ++end;
        value = line.substr(begin, end - begin);
    }
    return true;
}

TaskState
taskStateFromName(const std::string &name, bool &ok)
{
    ok = true;
    if (name == "pending")
        return TaskState::Pending;
    if (name == "running")
        return TaskState::Running;
    if (name == "done")
        return TaskState::Done;
    if (name == "failed")
        return TaskState::Failed;
    ok = false;
    return TaskState::Pending;
}

} // namespace

const char *
taskStateName(TaskState state)
{
    switch (state) {
    case TaskState::Pending: return "pending";
    case TaskState::Running: return "running";
    case TaskState::Done:    return "done";
    case TaskState::Failed:  return "failed";
    }
    return "pending";
}

int
acquireSidecarLock(const std::string &path)
{
    const std::string lockPath = path + ".lock";
    for (int tries = 0; tries < 16; ++tries) {
        const int fd = ::open(lockPath.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd < 0)
            return -1;
        if (::flock(fd, LOCK_EX) != 0) {
            ::close(fd);
            return -1;
        }
        struct stat onDisk, held;
        if (::stat(lockPath.c_str(), &onDisk) == 0 &&
            ::fstat(fd, &held) == 0 && onDisk.st_ino == held.st_ino)
            return fd;
        ::close(fd); // lost the race with an unlinker; try again
    }
    return -1;
}

void
releaseSidecarLock(int lockFd, const std::string &path,
                   bool unlinkStale)
{
    if (lockFd < 0)
        return;
    if (unlinkStale)
        ::unlink((path + ".lock").c_str());
    ::close(lockFd); // releases the flock
}

bool
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr)
        return false;
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), out) ==
        content.size();
    std::fflush(out);
    ::fsync(::fileno(out));
    std::fclose(out);
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
        out.append(buf, n);
    const bool ok = std::ferror(in) == 0;
    std::fclose(in);
    return ok;
}


bool
looksLikeCompleteJson(const std::string &path)
{
    std::string text;
    if (!readWholeFile(path, text))
        return false;
    int depth = 0;
    bool inString = false;
    bool escaped = false;
    bool sawValue = false;
    for (const char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"') {
            inString = true;
            sawValue = true;
        } else if (c == '{' || c == '[') {
            ++depth;
            sawValue = true;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            sawValue = true;
        }
    }
    return sawValue && depth == 0 && !inString;
}

void
installStopSignalHandlers()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = stopSignalHandler;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
}

bool
orchestratorStopRequested()
{
    return g_stopRequested != 0;
}

void
orchestratorRequestStop()
{
    g_stopRequested = 1;
}

void
orchestratorClearStop()
{
    g_stopRequested = 0;
}

/** One live worker process. */
struct SweepOrchestrator::Child
{
    std::string taskId;
    ::pid_t pid = -1;
    double startSec = 0.0;
    bool termSent = false;
    double termSentSec = 0.0;
    bool timedOut = false;
    /** Trace-clock launch stamp (0 when tracing was off at launch). */
    std::uint64_t traceStartNs = 0;
};

SweepOrchestrator::SweepOrchestrator(std::vector<SweepTask> tasks,
                                     OrchestratorConfig config)
    : tasks_(std::move(tasks)), config_(std::move(config))
{
    if (config_.maxWorkers == 0)
        config_.maxWorkers = 1;
    for (const SweepTask &task : tasks_)
        records_[task.id] = TaskRecord{};
}

void
SweepOrchestrator::loadJournal()
{
    priorAttempts_ = 0;
    if (config_.journalPath.empty())
        return;
    std::string text;
    if (!readWholeFile(config_.journalPath, text))
        return; // no journal yet: fresh sweep

    // Parse line-by-line; any malformed task line quarantines the
    // whole journal (we cannot trust a file we no longer understand).
    std::map<std::string, TaskRecord> loaded;
    bool corrupt = false;
    std::size_t begin = 0;
    while (begin < text.size() && !corrupt) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(begin, end - begin);
        begin = end + 1;
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty())
            continue;
        if (line.find("\"journal\":") != std::string::npos)
            continue; // header
        if (line.front() != '{' || line.back() != '}') {
            corrupt = true;
            break;
        }
        std::string id, stateName, attempts, lastExit, timeouts,
            corruptOutputs;
        bool stateOk = false;
        TaskRecord record;
        if (!extractField(line, "task", id) ||
            !extractField(line, "state", stateName) ||
            !extractField(line, "attempts", attempts)) {
            corrupt = true;
            break;
        }
        record.state = taskStateFromName(stateName, stateOk);
        if (!stateOk) {
            corrupt = true;
            break;
        }
        record.attempts = std::strtoul(attempts.c_str(), nullptr, 10);
        if (extractField(line, "exit", lastExit))
            record.lastExit =
                static_cast<int>(std::strtol(lastExit.c_str(),
                                             nullptr, 10));
        if (extractField(line, "timeouts", timeouts))
            record.timeouts =
                std::strtoul(timeouts.c_str(), nullptr, 10);
        if (extractField(line, "corrupt_outputs", corruptOutputs))
            record.corruptOutputs =
                std::strtoul(corruptOutputs.c_str(), nullptr, 10);
        std::string busy, backoff;
        if (extractField(line, "busy_s", busy))
            record.busySec = std::strtod(busy.c_str(), nullptr);
        if (extractField(line, "backoff_s", backoff))
            record.backoffSec = std::strtod(backoff.c_str(), nullptr);
        loaded[id] = record;
    }

    if (corrupt) {
        const std::string quarantine = config_.journalPath + ".corrupt";
        std::rename(config_.journalPath.c_str(), quarantine.c_str());
        std::fprintf(stderr,
                     "orchestrator: journal %s was corrupt; "
                     "quarantined to %s, starting fresh\n",
                     config_.journalPath.c_str(), quarantine.c_str());
        return;
    }

    for (const SweepTask &task : tasks_) {
        const auto it = loaded.find(task.id);
        if (it == loaded.end())
            continue; // new task since the journal was written
        TaskRecord record = it->second;
        priorAttempts_ += record.attempts;
        switch (record.state) {
        case TaskState::Done:
            // Trust done only when the output is still present and
            // valid; a vanished/corrupt result file means re-run.
            if (!looksLikeCompleteJson(task.outputPath))
                record.state = TaskState::Pending;
            break;
        case TaskState::Running:
            // The previous orchestrator died with this task in
            // flight; the worker is gone (or orphaned), re-run it.
            record.state = TaskState::Pending;
            break;
        case TaskState::Failed:
            // A resume may run under a more generous policy.
            if (config_.retry.shouldRetry(record.attempts))
                record.state = TaskState::Pending;
            break;
        case TaskState::Pending:
            break;
        }
        records_[task.id] = record;
    }
}

void
SweepOrchestrator::checkpoint()
{
    if (config_.journalPath.empty())
        return;
    std::string out;
    out += "{\"journal\": \"varsched_sweep\", \"tasks\": " +
           std::to_string(tasks_.size()) + "}\n";
    for (const SweepTask &task : tasks_) {
        const TaskRecord &r = records_[task.id];
        char timing[96];
        std::snprintf(timing, sizeof timing,
                      ", \"busy_s\": %.9g, \"backoff_s\": %.9g}\n",
                      r.busySec, r.backoffSec);
        out += "{\"task\": \"" + task.id + "\", \"state\": \"" +
               taskStateName(r.state) +
               "\", \"attempts\": " + std::to_string(r.attempts) +
               ", \"exit\": " + std::to_string(r.lastExit) +
               ", \"timeouts\": " + std::to_string(r.timeouts) +
               ", \"corrupt_outputs\": " +
               std::to_string(r.corruptOutputs) + timing;
    }
    const int lockFd = acquireSidecarLock(config_.journalPath);
    atomicWriteFile(config_.journalPath, out);
    if (lockFd >= 0)
        ::close(lockFd);
}

void
SweepOrchestrator::finishTask(const std::string &id, int exitStatus,
                              bool timedOut, double nowSec,
                              double attemptSec)
{
    TaskRecord &record = records_[id];
    record.attempts += 1;
    record.lastExit = exitStatus;
    record.busySec += std::max(attemptSec, 0.0);
    if (timedOut)
        record.timeouts += 1;

    static metrics::Counter &attemptsCounter =
        metrics::Registry::global().counter("sweep.attempts");
    static metrics::Counter &timeoutsCounter =
        metrics::Registry::global().counter("sweep.timeouts");
    attemptsCounter.add();
    if (timedOut)
        timeoutsCounter.add();

    const SweepTask *task = nullptr;
    for (const SweepTask &t : tasks_)
        if (t.id == id)
            task = &t;

    bool ok = exitStatus == 0 && !timedOut && task != nullptr;
    if (ok && !looksLikeCompleteJson(task->outputPath)) {
        // Exit 0 but the result file is missing or torn: treat as a
        // failure and drop the bad file so a later attempt cannot be
        // shadowed by it.
        record.corruptOutputs += 1;
        std::remove(task->outputPath.c_str());
        ok = false;
    }

    if (ok) {
        record.state = TaskState::Done;
        return;
    }
    if (!config_.retry.shouldRetry(record.attempts)) {
        record.state = TaskState::Failed;
        return;
    }
    record.state = TaskState::Pending;
    // Decorrelated jitter, but on a stream that is a pure function of
    // (seed, task, attempt) so the schedule replays across resumes.
    Rng jitter(deriveSeed(kRetrySeed, idHash(id), record.attempts));
    double &prev = prevDelay_[id];
    prev = config_.retry.nextDelay(prev, jitter);
    notBefore_[id] = nowSec + prev;
    record.backoffSec += prev;
    static metrics::Counter &retriesCounter =
        metrics::Registry::global().counter("sweep.retries");
    retriesCounter.add();
}

void
SweepOrchestrator::reapFinished(std::vector<Child> &running)
{
    for (std::size_t i = 0; i < running.size();) {
        int status = 0;
        const ::pid_t got =
            ::waitpid(running[i].pid, &status, WNOHANG);
        if (got != running[i].pid) {
            ++i;
            continue;
        }
        int exitStatus = 127;
        if (WIFEXITED(status))
            exitStatus = WEXITSTATUS(status);
        else if (WIFSIGNALED(status))
            exitStatus = 128 + WTERMSIG(status);
        const double nowSec = monoSeconds();
        if (running[i].traceStartNs != 0 && trace::enabled())
            trace::recordSpan("sweep.task", running[i].traceStartNs,
                              trace::nowNs());
        finishTask(running[i].taskId, exitStatus,
                   running[i].timedOut, nowSec,
                   nowSec - running[i].startSec);
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(i));
        checkpoint();
    }
}

void
SweepOrchestrator::enforceTimeouts(std::vector<Child> &running,
                                   double nowSec)
{
    if (config_.taskTimeoutSec <= 0.0)
        return;
    for (Child &child : running) {
        if (nowSec - child.startSec < config_.taskTimeoutSec)
            continue;
        if (!child.termSent) {
            // Polite first: the worker group gets SIGTERM and the
            // grace period to flush; then the hammer.
            child.termSent = true;
            child.timedOut = true;
            child.termSentSec = nowSec;
            ::kill(-child.pid, SIGTERM);
        } else if (nowSec - child.termSentSec >=
                   config_.killGraceSec) {
            ::kill(-child.pid, SIGKILL);
        }
    }
}

void
SweepOrchestrator::launchEligible(std::vector<Child> &running,
                                  double nowSec)
{
    for (const SweepTask &task : tasks_) {
        if (running.size() >= config_.maxWorkers)
            return;
        TaskRecord &record = records_[task.id];
        if (record.state != TaskState::Pending)
            continue;
        const auto gate = notBefore_.find(task.id);
        if (gate != notBefore_.end() && nowSec < gate->second)
            continue;

        std::vector<char *> argv;
        argv.reserve(task.argv.size() + 1);
        for (const std::string &arg : task.argv)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);

        const std::string attemptEnv =
            std::to_string(record.attempts + 1);
        const ::pid_t parent = ::getpid();
        const ::pid_t pid = ::fork();
        if (pid < 0)
            return; // EAGAIN etc: try again next poll
        if (pid == 0) {
#ifdef __linux__
            // Die with the orchestrator: a killed orchestrator leaves
            // no worker behind. The signal follows the forking thread,
            // the orchestrator's one loop thread. An orchestrator that
            // died before the prctl took hold has already reparented
            // the child.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
#endif
            // Child: own process group so the watchdog can kill the
            // worker and anything it spawned in one shot.
            ::setpgid(0, 0);
            ::setenv("VARSCHED_TASK_ATTEMPT", attemptEnv.c_str(), 1);
            ::setenv("VARSCHED_TASK_ID", task.id.c_str(), 1);
            ::execvp(argv[0], argv.data());
            std::fprintf(stderr, "exec %s: %s\n", argv[0],
                         std::strerror(errno));
            ::_exit(127);
        }
        ::setpgid(pid, pid); // belt-and-braces vs the exec race
        Child child;
        child.taskId = task.id;
        child.pid = pid;
        child.startSec = nowSec;
        if (trace::enabled()) {
            child.traceStartNs = trace::nowNs();
            TRACE_INSTANT("sweep.launch");
        }
        running.push_back(child);
        record.state = TaskState::Running;
        launches_ += 1;
        checkpoint();
    }
}

void
SweepOrchestrator::terminateAll(std::vector<Child> &running)
{
    for (const Child &child : running)
        ::kill(-child.pid, SIGTERM);
    const double deadline = monoSeconds() + config_.killGraceSec;
    while (!running.empty() && monoSeconds() < deadline) {
        for (std::size_t i = 0; i < running.size();) {
            int status = 0;
            if (::waitpid(running[i].pid, &status, WNOHANG) ==
                running[i].pid)
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(i));
            else
                ++i;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }
    for (const Child &child : running) {
        ::kill(-child.pid, SIGKILL);
        ::waitpid(child.pid, nullptr, 0);
    }
    // Interrupted tasks go back to pending without an attempt
    // charged: the worker was killed by us, not by its own fault.
    for (const Child &child : running)
        records_[child.taskId].state = TaskState::Pending;
    running.clear();
}

SweepReport
SweepOrchestrator::run()
{
    loadJournal();
    // Anything journaled as running belongs to a dead orchestrator.
    for (auto &[id, record] : records_)
        if (record.state == TaskState::Running)
            record.state = TaskState::Pending;
    checkpoint();

    std::vector<Child> running;
    for (;;) {
        if (orchestratorStopRequested())
            break;
        const double nowSec = monoSeconds();
        reapFinished(running);
        enforceTimeouts(running, nowSec);
        launchEligible(running, nowSec);

        bool workLeft = !running.empty();
        for (const auto &[id, record] : records_)
            if (record.state == TaskState::Pending ||
                record.state == TaskState::Running)
                workLeft = true;
        if (!workLeft)
            break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(config_.pollSec, 1e-3)));
    }

    const bool interrupted = orchestratorStopRequested();
    if (interrupted)
        terminateAll(running);
    // Mark any leftover running state (belt-and-braces) pending, then
    // checkpoint the final state so a resume sees the truth.
    for (auto &[id, record] : records_)
        if (record.state == TaskState::Running)
            record.state = TaskState::Pending;
    checkpoint();

    SweepReport report;
    report.interrupted = interrupted;
    report.launches = launches_;
    for (const auto &[id, record] : records_) {
        switch (record.state) {
        case TaskState::Done:    report.done += 1; break;
        case TaskState::Failed:  report.failed += 1; break;
        default:                 report.pending += 1; break;
        }
    }
    return report;
}

bool
SweepOrchestrator::writeMergedOutputs(const std::string &path) const
{
    std::string out = "[\n";
    bool first = true;
    for (const SweepTask &task : tasks_) {
        const auto it = records_.find(task.id);
        if (it == records_.end() ||
            it->second.state != TaskState::Done)
            continue;
        std::string content;
        if (!readWholeFile(task.outputPath, content))
            continue;
        while (!content.empty() &&
               std::isspace(static_cast<unsigned char>(
                   content.back())))
            content.pop_back();
        if (!first)
            out += ",\n";
        out += content;
        first = false;
    }
    out += "\n]\n";
    return atomicWriteFile(path, out);
}

bool
SweepOrchestrator::writeManifest(const std::string &path,
                                 const SweepReport &report) const
{
    std::size_t totalAttempts = 0;
    double totalBusySec = 0.0, totalBackoffSec = 0.0;
    std::string out = "{\n  \"tasks\": [\n";
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const TaskRecord &r = records_.at(tasks_[i].id);
        totalAttempts += r.attempts;
        totalBusySec += r.busySec;
        totalBackoffSec += r.backoffSec;
        char line[640];
        std::snprintf(line, sizeof line,
                      "    {\"task\": \"%s\", \"state\": \"%s\", "
                      "\"attempts\": %zu, \"exit\": %d, "
                      "\"timeouts\": %zu, \"corrupt_outputs\": %zu, "
                      "\"busy_s\": %.9g, \"backoff_s\": %.9g}%s\n",
                      tasks_[i].id.c_str(),
                      taskStateName(r.state), r.attempts, r.lastExit,
                      r.timeouts, r.corruptOutputs, r.busySec,
                      r.backoffSec,
                      i + 1 < tasks_.size() ? "," : "");
        out += line;
    }
    char totals[384];
    std::snprintf(totals, sizeof totals,
                  "  ],\n  \"done\": %zu,\n  \"failed\": %zu,\n"
                  "  \"pending\": %zu,\n  \"launches\": %zu,\n"
                  "  \"prior_attempts\": %zu,\n"
                  "  \"total_attempts\": %zu,\n"
                  "  \"busy_s\": %.9g,\n  \"backoff_s\": %.9g,\n"
                  "  \"interrupted\": %s\n}\n",
                  report.done, report.failed, report.pending,
                  report.launches, priorAttempts_, totalAttempts,
                  totalBusySec, totalBackoffSec,
                  report.interrupted ? "true" : "false");
    out += totals;
    return atomicWriteFile(path, out);
}

} // namespace varsched
