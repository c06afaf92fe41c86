/**
 * @file
 * Sweep-orchestrator robustness suite: the RetryPolicy schedule
 * (pure-function, no sleeping), the structural JSON validator, the
 * sidecar-lock idiom, process-level orchestration against real
 * worker failures (nonzero exits, crashes, hangs, corrupt output),
 * and journal resume semantics.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "runtime/orchestrator.hh"
#include "runtime/retry.hh"

namespace varsched
{
namespace
{

// ---------------------------------------------------------------------
// RetryPolicy: every assertion here is clock-free by construction.

TEST(RetryPolicy, ShouldRetryCountsTheFirstRun)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    EXPECT_TRUE(policy.shouldRetry(0));
    EXPECT_TRUE(policy.shouldRetry(1));
    EXPECT_TRUE(policy.shouldRetry(2));
    EXPECT_FALSE(policy.shouldRetry(3));
    EXPECT_FALSE(policy.shouldRetry(100));

    policy.maxAttempts = 1; // run once, never retry
    EXPECT_TRUE(policy.shouldRetry(0));
    EXPECT_FALSE(policy.shouldRetry(1));
}

TEST(RetryPolicy, CappedDelayGrowsExponentiallyThenSaturates)
{
    RetryPolicy policy;
    policy.baseDelaySec = 0.25;
    policy.multiplier = 2.0;
    policy.maxDelaySec = 8.0;

    EXPECT_DOUBLE_EQ(policy.cappedDelay(0), 0.0);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(1), 0.25);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(2), 0.5);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(3), 1.0);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(4), 2.0);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(5), 4.0);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(6), 8.0);
    // Saturated: no overflow however deep the retry count goes.
    EXPECT_DOUBLE_EQ(policy.cappedDelay(7), 8.0);
    EXPECT_DOUBLE_EQ(policy.cappedDelay(1000), 8.0);
}

TEST(RetryPolicy, NextDelayStaysInsideTheEnvelope)
{
    RetryPolicy policy;
    policy.baseDelaySec = 0.1;
    policy.maxDelaySec = 2.0;

    Rng rng(12345);
    double prev = 0.0;
    for (int i = 0; i < 200; ++i) {
        prev = policy.nextDelay(prev, rng);
        EXPECT_GE(prev, policy.baseDelaySec);
        EXPECT_LE(prev, policy.maxDelaySec);
    }
}

TEST(RetryPolicy, NextDelayReplaysBitIdenticallyFromTheSameSeed)
{
    RetryPolicy policy;
    Rng a(777), b(777);
    double prevA = 0.0, prevB = 0.0;
    for (int i = 0; i < 32; ++i) {
        prevA = policy.nextDelay(prevA, a);
        prevB = policy.nextDelay(prevB, b);
        EXPECT_EQ(prevA, prevB);
    }
    // The very first delay (prev = 0) collapses the jitter interval
    // to [base, base]: deterministic even before the streams diverge.
    Rng c(1);
    EXPECT_DOUBLE_EQ(policy.nextDelay(0.0, c), policy.baseDelaySec);
}

// ---------------------------------------------------------------------
// Structural JSON validation (the chaos corruptions, in miniature).

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr) << path;
    std::fwrite(content.data(), 1, content.size(), out);
    std::fclose(out);
}

TEST(LooksLikeCompleteJson, AcceptsCompleteValues)
{
    const std::string path = tempPath("json_ok.json");
    writeFile(path, "{\"a\": [1, 2, {\"b\": \"x\"}]}\n");
    EXPECT_TRUE(looksLikeCompleteJson(path));
    writeFile(path, "[1, 2, 3]");
    EXPECT_TRUE(looksLikeCompleteJson(path));
    writeFile(path, "{\"escaped\": \"quote \\\" brace { inside\"}");
    EXPECT_TRUE(looksLikeCompleteJson(path));
    std::remove(path.c_str());
}

TEST(LooksLikeCompleteJson, RejectsTornAndCorruptFiles)
{
    const std::string path = tempPath("json_bad.json");
    writeFile(path, "{\"torn\": [1, 2");
    EXPECT_FALSE(looksLikeCompleteJson(path)); // truncated mid-write
    writeFile(path, "{\"open_string\": \"no close");
    EXPECT_FALSE(looksLikeCompleteJson(path));
    writeFile(path, "{\"a\": 1}}");
    EXPECT_FALSE(looksLikeCompleteJson(path)); // garbage suffix
    writeFile(path, "");
    EXPECT_FALSE(looksLikeCompleteJson(path)); // empty
    writeFile(path, "   \n\t ");
    EXPECT_FALSE(looksLikeCompleteJson(path)); // whitespace only
    std::remove(path.c_str());
    EXPECT_FALSE(looksLikeCompleteJson(path)); // missing entirely
}

// ---------------------------------------------------------------------
// Sidecar lock: acquisition, stale-unlink, reacquisition.

TEST(SidecarLock, UnlinkOnReleaseLeavesNoLitterAndStaysAcquirable)
{
    const std::string path = tempPath("lock_target.json");
    const std::string lockPath = path + ".lock";
    std::remove(lockPath.c_str());

    int fd = acquireSidecarLock(path);
    ASSERT_GE(fd, 0);
    struct stat st;
    EXPECT_EQ(::stat(lockPath.c_str(), &st), 0);

    releaseSidecarLock(fd, path, /*unlinkStale=*/true);
    EXPECT_NE(::stat(lockPath.c_str(), &st), 0)
        << "lock sidecar should be unlinked on clean release";

    // A fresh acquisition after the unlink must succeed (this is the
    // path a crashed run's survivor takes).
    fd = acquireSidecarLock(path);
    ASSERT_GE(fd, 0);
    releaseSidecarLock(fd, path, /*unlinkStale=*/false);
    EXPECT_EQ(::stat(lockPath.c_str(), &st), 0)
        << "without unlinkStale the sidecar is kept";
    std::remove(lockPath.c_str());
}

// ---------------------------------------------------------------------
// Orchestration against real worker processes (sh -c scripts).

SweepTask
shellTask(const std::string &id, const std::string &script,
          const std::string &outputPath)
{
    SweepTask task;
    task.id = id;
    task.argv = {"sh", "-c", script};
    task.outputPath = outputPath;
    return task;
}

/** Millisecond-scale knobs so retry tests never visibly sleep. */
OrchestratorConfig
fastConfig(const std::string &journalPath = std::string())
{
    OrchestratorConfig config;
    config.pollSec = 0.001;
    config.retry.baseDelaySec = 1e-3;
    config.retry.maxDelaySec = 5e-3;
    config.journalPath = journalPath;
    return config;
}

class SweepOrchestratorTest : public ::testing::Test
{
  protected:
    void SetUp() override { orchestratorClearStop(); }
    void TearDown() override { orchestratorClearStop(); }
};

TEST_F(SweepOrchestratorTest, MergesDoneOutputsInDefinitionOrder)
{
    std::vector<SweepTask> tasks;
    std::vector<std::string> outs;
    for (int i = 0; i < 3; ++i) {
        const std::string out =
            tempPath("orch_order_" + std::to_string(i) + ".json");
        std::remove(out.c_str());
        outs.push_back(out);
        char script[256];
        std::snprintf(script, sizeof script,
                      "printf '{\"point\": %d}' > %s", i,
                      out.c_str());
        tasks.push_back(shellTask("t" + std::to_string(i), script,
                                  out));
    }

    SweepOrchestrator orch(tasks, fastConfig());
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 3u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.pending, 0u);
    EXPECT_EQ(report.launches, 3u);
    EXPECT_TRUE(report.complete());
    EXPECT_FALSE(report.interrupted);

    const std::string merged = tempPath("orch_order_merged.json");
    ASSERT_TRUE(orch.writeMergedOutputs(merged));
    std::string bytes;
    ASSERT_TRUE(readWholeFile(merged, bytes));
    EXPECT_EQ(bytes, "[\n{\"point\": 0},\n{\"point\": 1},\n"
                     "{\"point\": 2}\n]\n");
    EXPECT_TRUE(looksLikeCompleteJson(merged));

    for (const std::string &out : outs)
        std::remove(out.c_str());
    std::remove(merged.c_str());
}

TEST_F(SweepOrchestratorTest, RetriesFlakyTaskUntilItSucceeds)
{
    const std::string out = tempPath("orch_flaky.json");
    const std::string marker = tempPath("orch_flaky.marker");
    std::remove(out.c_str());
    std::remove(marker.c_str());

    // First attempt plants the marker and fails; the second finds it
    // and records which attempt the orchestrator advertised via env.
    char script[512];
    std::snprintf(script, sizeof script,
                  "if [ -f %s ]; then "
                  "printf '{\"attempt\": %%s}' "
                  "\"$VARSCHED_TASK_ATTEMPT\" > %s; "
                  "else touch %s; exit 1; fi",
                  marker.c_str(), out.c_str(), marker.c_str());

    SweepOrchestrator orch({shellTask("flaky", script, out)},
                           fastConfig());
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.launches, 2u);

    const TaskRecord &record = orch.records().at("flaky");
    EXPECT_EQ(record.state, TaskState::Done);
    EXPECT_EQ(record.attempts, 2u);
    EXPECT_EQ(record.lastExit, 0);

    std::string bytes;
    ASSERT_TRUE(readWholeFile(out, bytes));
    EXPECT_EQ(bytes, "{\"attempt\": 2}");
    std::remove(out.c_str());
    std::remove(marker.c_str());
}

TEST_F(SweepOrchestratorTest, CrashedWorkerIsRetriedToCompletion)
{
    const std::string out = tempPath("orch_crash.json");
    const std::string marker = tempPath("orch_crash.marker");
    std::remove(out.c_str());
    std::remove(marker.c_str());

    char script[512];
    std::snprintf(script, sizeof script,
                  "if [ -f %s ]; then printf '{\"ok\": 1}' > %s; "
                  "else touch %s; kill -KILL $$; fi",
                  marker.c_str(), out.c_str(), marker.c_str());

    SweepOrchestrator orch({shellTask("crashy", script, out)},
                           fastConfig());
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);
    const TaskRecord &record = orch.records().at("crashy");
    EXPECT_EQ(record.attempts, 2u);
    EXPECT_EQ(record.state, TaskState::Done);

    std::remove(out.c_str());
    std::remove(marker.c_str());
}

TEST_F(SweepOrchestratorTest, WatchdogKillsHungWorker)
{
    const std::string out = tempPath("orch_hang.json");
    std::remove(out.c_str());

    OrchestratorConfig config = fastConfig();
    config.taskTimeoutSec = 0.2;
    config.killGraceSec = 0.1;
    config.retry.maxAttempts = 1; // one run, then give up

    SweepOrchestrator orch({shellTask("hung", "sleep 30", out)},
                           config);
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 0u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_FALSE(report.complete());

    const TaskRecord &record = orch.records().at("hung");
    EXPECT_EQ(record.state, TaskState::Failed);
    EXPECT_EQ(record.timeouts, 1u);
    EXPECT_GE(record.lastExit, 128) << "killed by signal, not exit";
}

TEST_F(SweepOrchestratorTest,
       CorruptOutputWithExitZeroFailsValidationButSweepCompletes)
{
    const std::string badOut = tempPath("orch_corrupt_bad.json");
    const std::string goodOut = tempPath("orch_corrupt_good.json");
    std::remove(badOut.c_str());
    std::remove(goodOut.c_str());

    // The liar exits 0 having written a torn file every time.
    char liar[256];
    std::snprintf(liar, sizeof liar, "printf '{\"torn\": ' > %s",
                  badOut.c_str());
    char good[256];
    std::snprintf(good, sizeof good, "printf '{\"fine\": 1}' > %s",
                  goodOut.c_str());

    OrchestratorConfig config = fastConfig();
    config.retry.maxAttempts = 2;
    SweepOrchestrator orch({shellTask("liar", liar, badOut),
                            shellTask("good", good, goodOut)},
                           config);
    const SweepReport report = orch.run();

    // Graceful degradation: the sweep finishes and the good task's
    // result is preserved even though the liar exhausted its runs.
    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.pending, 0u);

    const TaskRecord &record = orch.records().at("liar");
    EXPECT_EQ(record.state, TaskState::Failed);
    EXPECT_EQ(record.corruptOutputs, 2u);
    struct stat st;
    EXPECT_NE(::stat(badOut.c_str(), &st), 0)
        << "corrupt output must be dropped, not left to shadow a "
           "later attempt";

    const std::string merged = tempPath("orch_corrupt_merged.json");
    ASSERT_TRUE(orch.writeMergedOutputs(merged));
    std::string bytes;
    ASSERT_TRUE(readWholeFile(merged, bytes));
    EXPECT_EQ(bytes, "[\n{\"fine\": 1}\n]\n");

    std::remove(goodOut.c_str());
    std::remove(merged.c_str());
}

TEST_F(SweepOrchestratorTest, ResumeFromJournalSkipsDoneTasks)
{
    const std::string out = tempPath("orch_resume.json");
    const std::string journal = tempPath("orch_resume_journal.jsonl");
    std::remove(out.c_str());
    std::remove(journal.c_str());

    char script[256];
    std::snprintf(script, sizeof script,
                  "printf '{\"run\": 1}' > %s", out.c_str());
    const std::vector<SweepTask> tasks = {
        shellTask("stable", script, out)};

    {
        SweepOrchestrator first(tasks, fastConfig(journal));
        const SweepReport report = first.run();
        ASSERT_EQ(report.done, 1u);
        ASSERT_EQ(report.launches, 1u);
    }

    // Same tasks, same journal: nothing should be re-executed.
    SweepOrchestrator second(tasks, fastConfig(journal));
    const SweepReport report = second.run();
    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.launches, 0u)
        << "resume re-ran a task whose output is valid";

    // The manifest carries the first run's attempt as prior work.
    const std::string manifest = tempPath("orch_resume_manifest.json");
    ASSERT_TRUE(second.writeManifest(manifest, report));
    std::string bytes;
    ASSERT_TRUE(readWholeFile(manifest, bytes));
    EXPECT_NE(bytes.find("\"prior_attempts\": 1"), std::string::npos)
        << bytes;
    EXPECT_NE(bytes.find("\"total_attempts\": 1"), std::string::npos)
        << bytes;
    EXPECT_TRUE(looksLikeCompleteJson(manifest));

    std::remove(out.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
    std::remove(manifest.c_str());
}

TEST_F(SweepOrchestratorTest, JournaledRunningTaskIsRerunOnResume)
{
    const std::string out = tempPath("orch_inflight.json");
    const std::string journal =
        tempPath("orch_inflight_journal.jsonl");
    std::remove(out.c_str());

    // Hand-written journal from a "killed" orchestrator: the task was
    // in flight (running, one attempt charged) and its output never
    // landed.
    writeFile(journal,
              "{\"journal\": \"varsched_sweep\", \"tasks\": 1}\n"
              "{\"task\": \"inflight\", \"state\": \"running\", "
              "\"attempts\": 1, \"exit\": 0, \"timeouts\": 0, "
              "\"corrupt_outputs\": 0}\n");

    char script[256];
    std::snprintf(script, sizeof script,
                  "printf '{\"rescued\": 1}' > %s", out.c_str());
    SweepOrchestrator orch({shellTask("inflight", script, out)},
                           fastConfig(journal));
    orch.loadJournal();
    EXPECT_EQ(orch.records().at("inflight").state,
              TaskState::Pending)
        << "running state from a dead orchestrator must rewind";
    EXPECT_EQ(orch.records().at("inflight").attempts, 1u);

    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.launches, 1u);
    EXPECT_EQ(orch.records().at("inflight").attempts, 2u);

    std::remove(out.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
}

TEST_F(SweepOrchestratorTest, BusyAndBackoffTotalsMergeAcrossResume)
{
    const std::string out = tempPath("orch_timing.json");
    const std::string journal = tempPath("orch_timing_journal.jsonl");
    std::remove(out.c_str());

    // Journal from a kill -9'd orchestrator: the task was in flight
    // with one attempt charged, 1.5 s of worker wall time spent and
    // 0.25 s already slept in retry backoff.
    writeFile(journal,
              "{\"journal\": \"varsched_sweep\", \"tasks\": 1}\n"
              "{\"task\": \"timed\", \"state\": \"running\", "
              "\"attempts\": 1, \"exit\": 0, \"timeouts\": 0, "
              "\"corrupt_outputs\": 0, \"busy_s\": 1.5, "
              "\"backoff_s\": 0.25}\n");

    // The resumed attempt fails once (accruing fresh backoff on top
    // of the journaled total) and then succeeds.
    const std::string marker = tempPath("orch_timing.marker");
    std::remove(marker.c_str());
    char script[512];
    std::snprintf(script, sizeof script,
                  "if [ -f %s ]; then printf '{\"done\": 1}' > %s; "
                  "else touch %s; exit 1; fi",
                  marker.c_str(), out.c_str(), marker.c_str());

    SweepOrchestrator orch({shellTask("timed", script, out)},
                           fastConfig(journal));
    orch.loadJournal();
    EXPECT_DOUBLE_EQ(orch.records().at("timed").busySec, 1.5)
        << "journaled wall time must survive the resume";
    EXPECT_DOUBLE_EQ(orch.records().at("timed").backoffSec, 0.25);

    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);
    const TaskRecord &record = orch.records().at("timed");
    EXPECT_EQ(record.attempts, 3u);
    EXPECT_GT(record.busySec, 1.5)
        << "this run's attempts must accumulate on the prior total";
    EXPECT_GT(record.backoffSec, 0.25)
        << "the retry after the failed attempt must add backoff";

    // The merged totals reach both the re-checkpointed journal and
    // the manifest.
    std::string journalBytes;
    ASSERT_TRUE(readWholeFile(journal, journalBytes));
    EXPECT_NE(journalBytes.find("\"busy_s\": "), std::string::npos);
    EXPECT_EQ(journalBytes.find("\"busy_s\": 1.5,"),
              std::string::npos)
        << "checkpoint must carry the merged total, not the prior one";

    const std::string manifest = tempPath("orch_timing_manifest.json");
    ASSERT_TRUE(orch.writeManifest(manifest, report));
    std::string bytes;
    ASSERT_TRUE(readWholeFile(manifest, bytes));
    EXPECT_NE(bytes.find("\"busy_s\": "), std::string::npos) << bytes;
    EXPECT_NE(bytes.find("\"backoff_s\": "), std::string::npos)
        << bytes;
    EXPECT_TRUE(looksLikeCompleteJson(manifest));

    std::remove(out.c_str());
    std::remove(marker.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
    std::remove(manifest.c_str());
}

TEST_F(SweepOrchestratorTest, FailedTaskRetryableUnderWiderPolicy)
{
    const std::string out = tempPath("orch_widen.json");
    const std::string journal = tempPath("orch_widen_journal.jsonl");
    std::remove(out.c_str());

    writeFile(journal,
              "{\"journal\": \"varsched_sweep\", \"tasks\": 1}\n"
              "{\"task\": \"gave_up\", \"state\": \"failed\", "
              "\"attempts\": 2, \"exit\": 1, \"timeouts\": 0, "
              "\"corrupt_outputs\": 0}\n");

    char script[256];
    std::snprintf(script, sizeof script,
                  "printf '{\"recovered\": 1}' > %s", out.c_str());

    // maxAttempts 4 > the journaled 2: the resume gets to try again.
    SweepOrchestrator orch({shellTask("gave_up", script, out)},
                           fastConfig(journal));
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(orch.records().at("gave_up").attempts, 3u);

    std::remove(out.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
}

TEST_F(SweepOrchestratorTest, CorruptJournalIsQuarantinedNotTrusted)
{
    const std::string out = tempPath("orch_qjournal.json");
    const std::string journal = tempPath("orch_qjournal.jsonl");
    const std::string quarantine = journal + ".corrupt";
    std::remove(out.c_str());
    std::remove(quarantine.c_str());

    writeFile(journal, "this is not a journal at all {\"task\": \n");

    char script[256];
    std::snprintf(script, sizeof script,
                  "printf '{\"fresh\": 1}' > %s", out.c_str());
    SweepOrchestrator orch({shellTask("fresh", script, out)},
                           fastConfig(journal));
    orch.loadJournal();

    struct stat st;
    EXPECT_EQ(::stat(quarantine.c_str(), &st), 0)
        << "corrupt journal must be preserved for post-mortem";
    EXPECT_EQ(orch.records().at("fresh").state, TaskState::Pending);
    EXPECT_EQ(orch.records().at("fresh").attempts, 0u);

    // And the sweep runs fresh to completion.
    const SweepReport report = orch.run();
    EXPECT_EQ(report.done, 1u);

    std::remove(out.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
    std::remove(quarantine.c_str());
}

TEST_F(SweepOrchestratorTest, StopRequestInterruptsAndCheckpoints)
{
    const std::string out = tempPath("orch_stop.json");
    const std::string journal = tempPath("orch_stop_journal.jsonl");
    std::remove(out.c_str());
    std::remove(journal.c_str());

    // Stop already requested: run() must not launch anything, must
    // report the interruption, and must still checkpoint a journal a
    // resume can pick up.
    orchestratorRequestStop();
    SweepOrchestrator orch(
        {shellTask("never_ran", "printf '{}' > " + out, out)},
        fastConfig(journal));
    const SweepReport report = orch.run();
    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(report.pending, 1u);
    EXPECT_EQ(report.launches, 0u);
    EXPECT_FALSE(report.complete());

    std::string journalBytes;
    ASSERT_TRUE(readWholeFile(journal, journalBytes));
    EXPECT_NE(journalBytes.find("\"state\": \"pending\""),
              std::string::npos);

    // Clearing the stop flag lets a "resume" finish the sweep.
    orchestratorClearStop();
    SweepOrchestrator resumed(
        {shellTask("never_ran", "printf '{}' > " + out, out)},
        fastConfig(journal));
    EXPECT_EQ(resumed.run().done, 1u);

    std::remove(out.c_str());
    std::remove(journal.c_str());
    std::remove((journal + ".lock").c_str());
}

} // namespace
} // namespace varsched
