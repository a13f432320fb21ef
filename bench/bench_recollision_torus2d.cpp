// E3 — Lemma 4: re-collision probability on the 2-D torus.
//
// Two walkers starting at the same node re-collide at step m with
// probability O(1/(m+1) + 1/A).  The table reports the measured curve
// against the theory overlay; the log-log fit over the pre-floor range
// should have slope near -1.
#include "bench_common.hpp"

#include <string>

#include "core/bounds.hpp"
#include "graph/torus2d.hpp"
#include "stats/bootstrap.hpp"
#include "walk/recollision.hpp"

namespace antdense {
namespace {

void run(const util::Args& args) {
  const auto side = static_cast<std::uint32_t>(args.get_uint("side", 256));
  const auto trials = args.get_uint("trials", 300000);
  const auto m_max = static_cast<std::uint32_t>(args.get_uint("mmax", 256));

  bench::print_banner(
      "E3", "Lemma 4 (re-collision probability bound, 2-D torus)",
      "P[C at m] tracks 1/(m+1) + 1/A; log-log slope about -1 before the "
      "1/A floor");

  const graph::Torus2D torus(side, side);
  const auto curve =
      walk::measure_recollision_curve(torus, m_max, trials, 0xE3);

  util::Table table({"m", "P measured", "95% CI", "theory 1/(m+1)+1/A",
                     "ratio"});
  std::vector<double> ms, ps;
  for (std::uint32_t m = 1; m <= m_max; m *= 2) {
    const double p = curve.probability[m];
    const auto ci = stats::wilson_interval(curve.hits[m], curve.trials);
    const double theory = core::beta_torus2d(m, torus.num_nodes());
    table.row()
        .cell(m)
        .cell(util::format_sci(p, 3))
        .cell(std::string("[")
                  .append(util::format_sci(ci.lower, 2))
                  .append(", ")
                  .append(util::format_sci(ci.upper, 2))
                  .append("]"))
        .cell(util::format_sci(theory, 3))
        .cell(util::format_fixed(p / theory, 3))
        .commit();
    if (m >= 2 && p > 0.0) {
      ms.push_back(m);
      ps.push_back(p);
    }
  }
  std::cout << "\n";
  util::print_note(std::cout, "torus", torus.name());
  util::print_note(std::cout, "trials", util::format_count(trials));
  std::cout << "\n";
  table.print_markdown(std::cout);
  bench::print_power_fit("P[recollision] vs m", ms, ps);
}

}  // namespace
}  // namespace antdense

int main(int argc, char** argv) {
  const antdense::util::Args args(argc, argv);
  antdense::util::WallTimer timer;
  antdense::run(args);
  std::cout << "\n[elapsed "
            << antdense::util::format_fixed(timer.elapsed_seconds(), 1)
            << "s]\n";
  return 0;
}
