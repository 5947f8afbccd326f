// One job as submitted to a streaming consumer.
//
// A StreamJob is the row-at-a-time counterpart of an Instance row: the job
// fields plus its processing requirements in one of three payload forms.
// It is the unit of exchange between the chunked trace reader
// (workload/trace_io.hpp), the streaming job store, and
// SchedulerSession::submit — none of which ever need the whole instance in
// memory.
//
// Payload forms (exactly one of the two vectors may be non-empty):
//  * DENSE:    `processing` holds p_ij for every machine (size = m);
//              kTimeInfinity marks an ineligible machine, exactly as in the
//              Instance matrix. The compatibility form — every consumer
//              accepts it.
//  * SPARSE:   `entries` holds the eligible (machine, p) pairs only, in
//              strictly ascending machine order — the CSR backend's shape.
//              A restricted-assignment job eligible on 2 of 4096 machines
//              costs 2 entries, not 4096 doubles.
//  * METADATA: both vectors empty. Legal only toward a generator-backed
//              store, whose closed form already knows every p_ij — the
//              submission carries just release/weight/deadline.
#pragma once

#include <vector>

#include "instance/job.hpp"
#include "util/types.hpp"

namespace osched {

class Instance;

struct StreamJob {
  Time release = 0.0;
  Weight weight = 1.0;
  /// +infinity when the job has no deadline.
  Time deadline = kTimeInfinity;
  /// Dense form: p_ij for every machine i (size = num_machines);
  /// kTimeInfinity where the job cannot run. Empty when the sparse or
  /// metadata form is used.
  std::vector<Work> processing;
  /// Sparse form: eligible (machine, p) entries only, strictly ascending by
  /// machine id. Empty when the dense or metadata form is used.
  std::vector<SparseEntry> entries;
};

/// Fills `out` from one Instance row, shifting the release by
/// `release_offset` (chunked feeders splice independently generated chunks
/// onto a monotone timeline with it). Reuses the payload vectors' storage,
/// so feed loops pay no per-job allocation. This is THE conversion — every
/// feeder (streamed_run, the trace writer, the benches) goes through it, so
/// a new StreamJob field has exactly one place to be wired.
///
/// The payload form follows the instance's backend: a sparse-CSR instance
/// emits the SPARSE form straight off its adjacency — O(eligible), never
/// O(m) — while dense and generator instances emit the dense row (a
/// generator row is fully eligible, so dense IS its compact form). Feeders
/// that share a closed form with a generator-backed session should submit
/// metadata-only jobs instead (fill_stream_job_meta below).
void fill_stream_job(const Instance& instance, JobId j, Time release_offset,
                     StreamJob* out);

/// Metadata-only fill: job fields, no payload. The submission form for
/// generator-backed sessions (SessionOptions::generator), whose store
/// synthesizes every row from the shared closed form — the feeder never
/// materializes O(m) anything.
inline void fill_stream_job_meta(const Job& src, Time release_offset,
                                 StreamJob* out) {
  out->release = release_offset + src.release;
  out->weight = src.weight;
  out->deadline = src.deadline;
  out->processing.clear();
  out->entries.clear();
}

StreamJob make_stream_job(const Instance& instance, JobId j,
                          Time release_offset = 0.0);

}  // namespace osched
