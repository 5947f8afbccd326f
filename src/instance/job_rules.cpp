#include "instance/job_rules.hpp"

#include <cmath>
#include <ostream>

namespace osched::job_rules {

void diagnose_fields(Time release, Weight weight, Time deadline,
                     std::ostream& out) {
  if (release < 0.0) {
    out << "negative release " << release << "; ";
  } else if (!(release < kTimeInfinity)) {
    out << "non-finite release " << release << "; ";
  }
  if (!(weight > 0.0 && weight < kTimeInfinity)) {
    out << "weight " << weight << " is not finite positive; ";
  }
  if (!(deadline > release)) {
    out << "deadline " << deadline << " not after release " << release
        << "; ";
  }
}

void diagnose_dense_row(std::span<const Work> row, std::size_t num_machines,
                        std::ostream& out) {
  if (row.size() != num_machines) {
    out << "processing row has " << row.size() << " entries, store has "
        << num_machines << " machines; ";
  }
  bool any_eligible = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (eligible(row[i])) {
      any_eligible = true;
      if (!(row[i] > 0.0)) out << "p[" << i << "] is non-positive or NaN; ";
    } else if (std::isnan(row[i])) {
      out << "p[" << i << "] is NaN; ";
    }
  }
  if (row.size() == num_machines && !any_eligible) {
    out << "no eligible machine; ";
  }
}

void diagnose_sparse_row(std::span<const SparseEntry> entries,
                         std::size_t num_machines, std::ostream& out) {
  MachineId previous = kInvalidMachine;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const SparseEntry& entry = entries[k];
    if (sparse_id_ok(entry.machine, previous, num_machines)) {
      previous = entry.machine;
    } else if (entry.machine < 0 ||
               static_cast<std::size_t>(entry.machine) >= num_machines) {
      out << "entries[" << k << "] machine " << entry.machine
          << " out of range (store has " << num_machines << " machines); ";
    } else if (entry.machine == previous) {
      out << "entries[" << k << "] duplicates machine " << entry.machine
          << "; ";
    } else {
      out << "entries[" << k << "] machine " << entry.machine
          << " out of order (entries are sorted ascending by machine); ";
    }
    if (!(entry.p > 0.0)) {
      out << "entries[" << k << "] p is non-positive or NaN; ";
    } else if (!eligible(entry.p)) {
      out << "entries[" << k
          << "] p is not finite (omit ineligible machines); ";
    }
  }
  if (previous == kInvalidMachine) out << "no eligible machine; ";
}

void diagnose_release_order(Time release, Time previous, std::ostream& out) {
  if (!release_order_ok(release, previous)) {
    out << "release " << release
        << " out of order: precedes the last submitted release " << previous
        << " (jobs must arrive in release order); ";
  }
}

}  // namespace osched::job_rules
