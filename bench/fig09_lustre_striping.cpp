// Fig 9 + Table III: write time per output flush for BIT1 openPMD + BP4 +
// Blosc + 1 AGGR on Dardel (200 nodes), across Lustre stripe sizes
// {1,2,4,8,16 MiB} and OST (stripe) counts {1,2,4,8,16,32,48}.
//
// Paper findings: best 0.0089 s at 16 MiB / 1 OST; 4 MiB improves ~4% from
// 1 -> 2 OSTs while 16 MiB degrades ~7.9%; beyond a few OSTs returns
// diminish — trends are not uniform, so tuning must be per-configuration.
#include "bench_common.hpp"

using namespace bitio;
using namespace bitio::benchkit;

int main() {
  print_header(
      "Fig 9 — per-flush write time, openPMD+BP4+Blosc+1AGGR, Dardel, "
      "200 nodes (seconds)",
      "best 0.0089 s at 16MiB/1 OST; non-uniform trends across the grid");

  const auto profile = fsim::dardel();
  // The striping study ran the smaller-volume campaign (Table II sizes).
  // The steady-state per-flush time is the makespan difference between a
  // long and a short window, which cancels the startup phase (input reads,
  // file creates).
  auto spec_long = core::ScaleSpec::table2(200);
  spec_long.dat_dumps = 8;
  auto spec_short = spec_long;
  spec_short.dat_dumps = 2;

  const std::vector<std::uint64_t> stripe_sizes = {1 * MiB, 2 * MiB, 4 * MiB,
                                                   8 * MiB, 16 * MiB};
  const std::vector<int> stripe_counts = {1, 2, 4, 8, 16, 32, 48};

  TextTable table;
  {
    std::vector<std::string> header{"stripe size"};
    for (int count : stripe_counts)
      header.push_back(std::to_string(count) + " OST");
    table.header(std::move(header));
  }
  double best = 1e30;
  std::string best_label;
  fsim::StripeSettings best_stripe;
  for (std::uint64_t size : stripe_sizes) {
    std::vector<std::string> row{format_bytes(size)};
    for (int count : stripe_counts) {
      auto config = openpmd_config(1, "blosc");
      config.use_striping = true;
      config.striping = {count, size};
      const auto long_run = core::run_openpmd_epoch(profile, spec_long, config);
      const auto short_run =
          core::run_openpmd_epoch(profile, spec_short, config);
      const double per_flush =
          (long_run.makespan_s - short_run.makespan_s) /
          double(spec_long.dat_dumps - spec_short.dat_dumps);
      row.push_back(strfmt("%.4f", per_flush));
      if (per_flush < best) {
        best = per_flush;
        best_label = format_bytes(size) + " / " + std::to_string(count) +
                     " OST";
        best_stripe = config.striping;
      }
    }
    table.row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Best configuration: %s at %.4f s (paper: 16MiB / 1 OST at "
              "0.0089 s)\n",
              best_label.c_str(), best);
  // Every swept stripe size is a whole number of MiB: lfs's "<n>M".
  std::printf(
      "\nTable III command for the best run:\n  lfs setstripe -c %d -S %lluM "
      "io_openPMD\n",
      best_stripe.stripe_count,
      static_cast<unsigned long long>(best_stripe.stripe_size / MiB));
  return 0;
}
