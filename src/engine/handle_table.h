#ifndef DIFFC_ENGINE_HANDLE_TABLE_H_
#define DIFFC_ENGINE_HANDLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "engine/prepared_premises.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffc {

/// A table of live `PreparedPremises` handles: process-unique ids mapped
/// to shared compiled artifacts, each owned by the session (or tenant)
/// that registered it. This is the registration side of the diffcd
/// service — REGISTER_PREMISES inserts here, CHECK_BATCH looks up here,
/// RELEASE / disconnect remove here — but it is engine-layer on purpose:
/// it knows nothing of sessions, sockets or frames (an owner is an opaque
/// id), so the table is usable and testable without a server.
///
/// Quotas are enforced at registration: `max_handles_per_owner` bounds
/// one session's appetite, `max_total_handles` bounds the process
/// (artifacts pin memory for as long as they are registered). Both
/// rejections surface as ResourceExhausted, which the service maps to a
/// typed error frame.
///
/// Thread-safe; lookups copy the `shared_ptr` so a released handle's
/// artifact stays alive until every in-flight batch over it finishes.
class PreparedHandleTable {
 public:
  struct Options {
    std::size_t max_handles_per_owner = 64;
    std::size_t max_total_handles = 4096;
  };

  PreparedHandleTable() : PreparedHandleTable(Options()) {}
  explicit PreparedHandleTable(Options options) : options_(options) {}

  PreparedHandleTable(const PreparedHandleTable&) = delete;
  PreparedHandleTable& operator=(const PreparedHandleTable&) = delete;

  /// Inserts `prepared` (non-null) for `owner` and returns the new handle
  /// id (never 0, never reused). ResourceExhausted when either quota is
  /// full.
  Result<std::uint64_t> Register(std::uint64_t owner,
                                 std::shared_ptr<const PreparedPremises> prepared)
      EXCLUDES(mu_);

  /// The artifact behind `handle`, or NotFound.
  Result<std::shared_ptr<const PreparedPremises>> Lookup(std::uint64_t handle) const
      EXCLUDES(mu_);

  /// Removes `handle`. NotFound for an unknown id; FailedPrecondition when
  /// `owner` did not register it (one session cannot drop another's
  /// handles).
  Status Release(std::uint64_t handle, std::uint64_t owner) EXCLUDES(mu_);

  /// Removes every handle `owner` registered (session teardown). Returns
  /// how many were dropped.
  std::size_t ReleaseAllForOwner(std::uint64_t owner) EXCLUDES(mu_);

  /// Live handles across all owners.
  std::size_t size() const EXCLUDES(mu_);

  /// Live handles registered by `owner`.
  std::size_t CountForOwner(std::uint64_t owner) const EXCLUDES(mu_);

 private:
  struct Entry {
    std::uint64_t owner = 0;
    std::shared_ptr<const PreparedPremises> prepared;
  };

  const Options options_;
  mutable Mutex mu_;
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<std::uint64_t, Entry> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::size_t> per_owner_ GUARDED_BY(mu_);
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_HANDLE_TABLE_H_
