// Durable run journal for the distributed explorer: an append-only,
// CRC-framed record stream that survives a coordinator crash and lets
// `revisim_cli dist-explore --resume <journal>` skip every lex range whose
// walk already completed.
//
// File layout: an 8-byte magic ("RVSJRNL2"; the last byte is the layout
// version, and a journal of another version is refused by name), then
// records framed like the wire format - [u32 payload length][u8 record
// type][payload][u32 crc over type + payload] - with all payload integers
// little-endian via WireWriter/WireReader.  Record types:
//
//   kConfig (1)     the run configuration fingerprint (world tag + every
//                   option that shapes the schedule tree or its accounting:
//                   max_steps, max_executions, max_crashes, por, dedupe,
//                   record_traces).  Always the first record; resume
//                   refuses a journal whose config differs from the
//                   options it was launched with.
//   kCreated (2)    a job record came into existence: id, parent link, and
//                   the full (prefix, choices, sleep) region spec - enough
//                   to re-run the job from scratch.
//   kDone (3)       a job's walk completed: id + SubtreeResult.  Written
//                   only for walks the merge may reuse verbatim: fully
//                   explored, or carrying a violation (partial cap/stop
//                   walks are NOT journaled - a resumed run re-walks them,
//                   and the deterministic merge truncates identically).
//   kDiscarded (4)  tombstone: the job's region was re-covered by an
//                   ancestor's re-run (written during resume planning), so
//                   later resumes must ignore the record entirely.
//
// A crash can tear the file only at the tail; read_journal treats a
// truncated or crc-failing tail as "the run got this far" and drops it,
// which is exactly the durability the resume contract needs: every kDone
// record that survives is a completed walk, and anything lost simply
// re-runs.  Writes are flushed per record.
//
// Resume rule (see check::detail::plan_resume): a journaled job is REUSED
// iff it is done and every ancestor is done; a job with an un-done
// ancestor is DISCARDED (the ancestor re-runs its full original region,
// descendants included); an un-done job with done ancestors is RERUN from
// its recorded spec.  The merged result of reused + rerun regions is
// bit-identical to an uninterrupted run because the merge is a
// deterministic function of the region decomposition.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/check/explore_core.h"
#include "src/dist/wire.h"
#include "src/runtime/trace.h"

namespace revisim::dist {

// The options fingerprint a journal pins.  `tag` is an opaque caller
// string naming the world (CLI: "world=aug-bu,f=2,m=2,budget=6"; tests:
// a fixture name); empty tags match only empty tags.
struct JournalConfig {
  std::string tag;
  std::uint64_t max_steps = 0;
  std::uint64_t max_executions = 0;
  std::uint64_t max_crashes = 0;
  bool por = false;
  bool dedupe = false;
  bool record_traces = false;

  bool operator==(const JournalConfig&) const = default;
};

// Appends records to a journal file.  Thread-safe: coordinator connection
// threads log donations and completions concurrently.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Creates/truncates `path`: magic + kConfig record.  Throws WireError.
  void create(const std::string& path, const JournalConfig& config);
  // Reopens an existing journal for appending (resume).  The caller is
  // expected to have validated the config via read_journal first.
  void append_to(const std::string& path);
  void close();
  [[nodiscard]] bool open() const { return file_ != nullptr; }

  void job_created(std::uint64_t id, bool has_parent, std::uint64_t parent,
                   const std::vector<runtime::ProcessId>& prefix,
                   const std::vector<runtime::ProcessId>& choices,
                   const std::vector<runtime::ProcessId>& sleep,
                   std::uint32_t sleep_inherited);
  void job_done(std::uint64_t id, const check::detail::SubtreeResult& result);
  void job_discarded(std::uint64_t id);

 private:
  void record(std::uint8_t type, const WireWriter& payload);

  std::mutex mu_;
  std::FILE* file_ = nullptr;
  WireWriter body_;
};

struct JournalJob {
  std::uint64_t id = 0;
  bool has_parent = false;
  std::uint64_t parent = 0;
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;
  std::vector<runtime::ProcessId> sleep;
  std::uint32_t sleep_inherited = 0;
  bool done = false;
  check::detail::SubtreeResult result;  // valid when done
  bool discarded = false;               // tombstoned by an earlier resume
};

struct JournalContents {
  JournalConfig config;
  std::vector<JournalJob> jobs;        // in creation order
  std::size_t dropped_tail_bytes = 0;  // torn/corrupt tail ignored
};

// Loads a journal, tolerating a torn tail (see above).  Throws WireError
// on files that are not journals at all (bad magic, missing config
// record), and on structural nonsense a tear cannot explain (a kDone for
// an id never created).
JournalContents read_journal(const std::string& path);

}  // namespace revisim::dist
