/**
 * @file
 * Crash-resumable sweep journal.
 *
 * A long sweep that dies (OOM kill, power loss, ctrl-C) should not have to
 * redo finished work. The journal is an append-only binary file recording
 * each completed job's outcome as soon as it finishes:
 *
 *   header := magic[8]="WSRSJRN1" u32 version u64 sweepKey u64 numJobs
 *   record := "JREC" u64 jobIndex u64 payloadLen payload
 *             u32 crc32(jobIndex || payloadLen || payload)
 *
 * All integers little-endian; the payload is a ckpt::Writer-encoded
 * SweepOutcome. The sweepKey (sweepKeyHash over every job's full
 * configuration, in submission order) binds a journal to one exact sweep:
 * resuming with a different benchmark list, machine list, seed or slice
 * length starts a fresh journal instead of mixing incompatible results.
 *
 * Durability model: records are flushed after each append, so after a kill
 * at any instant the file holds a clean prefix of records plus at most one
 * torn tail. On resume the journal validates the header, replays every
 * intact record (CRC-checked), truncates the torn tail if present, and
 * re-opens for append. Determinism of the simulator makes replayed and
 * re-run outcomes interchangeable, so a resumed sweep's report equals an
 * uninterrupted one (modulo host-timing metadata).
 */
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "src/runner/sweep_runner.h"

namespace wsrs::runner {

/** Journal file magic. */
inline constexpr char kJournalMagic[8] = {'W', 'S', 'R', 'S',
                                          'J', 'R', 'N', '1'};
/** Journal format version; bump on any layout change. */
inline constexpr std::uint32_t kJournalVersion = 1;

/**
 * Identity hash of a sweep: every job's complete configuration (profile
 * knobs, trace seed, warm-up/measure lengths, memory hierarchy, predictor,
 * core preset) chained in submission order.
 */
std::uint64_t sweepKeyHash(const std::vector<SweepJob> &jobs);

/**
 * Append-only journal of completed jobs, shared by the sweep workers.
 * Thread-safe: record() serializes appends internally.
 */
class ResumeJournal
{
  public:
    /**
     * Open @p path for a sweep identified by @p sweep_key with
     * @p num_jobs jobs.
     *
     * With @p resume set, an existing journal for the same sweep is
     * replayed into recovered() and extended; a journal for a *different*
     * sweep is a fatal error (refusing to silently mix results), and a
     * missing file starts fresh. Without @p resume any existing file is
     * truncated.
     */
    ResumeJournal(std::string path, std::uint64_t sweep_key,
                  std::uint64_t num_jobs, bool resume);

    /** Outcomes recovered from a prior run, indexed by job; entries with
     *  recoveredMask()[i] == false are default-constructed. */
    const std::vector<SweepOutcome> &recovered() const { return recovered_; }
    const std::vector<bool> &recoveredMask() const { return mask_; }
    /** Number of jobs recovered from the prior run. */
    std::size_t recoveredCount() const { return recoveredCount_; }
    /** Whether an intact prior journal was found and replayed. */
    bool resumed() const { return resumed_; }

    /** Append one finished job's outcome and flush it to disk. */
    void record(std::uint64_t index, const SweepOutcome &out);

  private:
    void writeHeader();
    void replay();

    std::string path_;
    std::uint64_t sweepKey_;
    std::uint64_t numJobs_;
    std::vector<SweepOutcome> recovered_;
    std::vector<bool> mask_;
    std::size_t recoveredCount_ = 0;
    bool resumed_ = false;
    std::ofstream out_;
    std::mutex mutex_;
};

} // namespace wsrs::runner
