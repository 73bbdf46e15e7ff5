#include "fault/work_unit.hpp"

#include <algorithm>

namespace ftr {

void merge_sweep_partials(SweepPartial& into, const SweepPartial& next) {
  into.sets += next.sets;
  if (next.diameter_histogram.size() > into.diameter_histogram.size()) {
    into.diameter_histogram.resize(next.diameter_histogram.size(), 0);
  }
  for (std::size_t d = 0; d < next.diameter_histogram.size(); ++d) {
    into.diameter_histogram[d] += next.diameter_histogram[d];
  }
  into.disconnected += next.disconnected;
  // The greatest diameter wins, and on equal diameters the lowest index.
  if (next.have_worst &&
      (!into.have_worst || next.worst_diameter > into.worst_diameter ||
       (next.worst_diameter == into.worst_diameter &&
        next.worst_index < into.worst_index))) {
    into.worst_diameter = next.worst_diameter;
    into.worst_index = next.worst_index;
    into.worst_faults = next.worst_faults;
    into.have_worst = true;
  }
  into.pairs_sampled += next.pairs_sampled;
  into.delivered += next.delivered;
  into.route_hops_total += next.route_hops_total;
  into.max_route_hops = std::max(into.max_route_hops, next.max_route_hops);
  into.max_edge_hops = std::max(into.max_edge_hops, next.max_edge_hops);
}

}  // namespace ftr
