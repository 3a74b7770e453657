// Tests of the benchmark's own helpers. Plain main with checks that
// stay active in every build type; exit code 1 on any failure.

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void
testTailPercentile()
{
    check(perfbench::tailPercentile(1000) == 99.0, "p99 at 1000");
    check(perfbench::tailPercentile(10000) == 99.9, "p99.9 at 10000");
    check(perfbench::tailPercentile(999) == 95.0, "p95 below 1000");
    check(perfbench::tailPercentile(200) == 95.0, "p95 at 200");
    check(perfbench::tailPercentile(199) == 90.0, "p90 below 200");
    check(perfbench::tailPercentile(100) == 90.0, "p90 at 100");
    check(perfbench::tailPercentile(40) == 75.0, "p75 at 40");
    check(perfbench::tailPercentile(20) == 50.0, "p50 at 20");
    check(perfbench::tailPercentile(19) == 0.0, "none below 20");
    // The selected percentile always leaves at least 10 beyond it,
    // and the next rung up would not.
    const std::vector<double> ladder = {50, 75, 90, 95, 99, 99.9};
    for (long n = 20; n <= 20000; n += 7) {
        const double q = perfbench::tailPercentile(n);
        check(perfbench::samplesBeyond(n, q) >= 10, "10 beyond");
        for (std::size_t i = 0; i + 1 < ladder.size(); ++i)
            if (ladder[i] == q)
                check(perfbench::samplesBeyond(n, ladder[i + 1]) < 10,
                      "highest rung");
    }
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    check(perfbench::percentile(v, 99.0) == 990.0, "nearest rank");
    check(perfbench::samplesBeyond(1000, 99.0) == 10, "beyond p99");
    check(perfbench::median({3, 1, 2, 4}) == 2.5, "even median");
}

void
testArrivalSchedule()
{
    const auto a = perfbench::arrivalSchedule(7, 25.0, 20.0);
    const auto b = perfbench::arrivalSchedule(7, 25.0, 20.0);
    const auto c = perfbench::arrivalSchedule(8, 25.0, 20.0);
    check(a == b, "same seed, same schedule");
    check(a != c, "different seed, different schedule");
    check(a.size() == 500, "exactly rate x seconds arrivals");
    check(perfbench::arrivalSchedule(7, 22.0, 0.5).size() == 11,
          "count rounds to nearest");
    bool ascending = true;
    for (std::size_t i = 0; i < a.size(); ++i)
        ascending = ascending && a[i] >= 0.0 && a[i] < 20.0 &&
                    (i == 0 || a[i] >= a[i - 1]);
    check(ascending, "ascending within the window");
    check(perfbench::deriveSeed(1, 2) != perfbench::deriveSeed(2, 1),
          "derived seeds differ by argument order");
}

void
testMetricNames()
{
    std::set<std::string> all;
    for (const auto *names : {&perfbench::endToEndMetricNames(),
                              &perfbench::perLayerMetricNames()})
        for (const auto &name : *names) {
            check(perfbench::validMetricName(name), name.c_str());
            check(name.size() <= 64, "name at most 64 characters");
            check(all.insert(name).second, "name used once");
        }
    check(!perfbench::validMetricName("bad name"), "space rejected");
    check(!perfbench::validMetricName(""), "empty rejected");
    check(!perfbench::validMetricName("a/b"), "slash rejected");
    for (const char *unit : {"ms", "s", "1/s", "count", "%", "Msites/s"})
        check(perfbench::validUnit(unit), unit);
    check(!perfbench::validUnit("m s"), "unit with a space rejected");

    // resultJson refuses what it cannot emit.
    bool threw = false;
    try {
        perfbench::resultJson(true, 1, 0, {{"bad name", 1.0, "ms"}});
    } catch (const std::exception &) {
        threw = true;
    }
    check(threw, "resultJson rejects invalid names");
    threw = false;
    try {
        perfbench::resultJson(true, 1, 0,
                              {{"a", 1.0, "ms"}, {"a", 2.0, "ms"}});
    } catch (const std::exception &) {
        threw = true;
    }
    check(threw, "resultJson rejects repeated names");
    const std::string json =
        perfbench::resultJson(true, 3, 0, {{"x_ms", 0.5, "ms"}});
    check(json == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                  "\"metrics\": {\"x_ms\": {\"value\": 0.5, "
                  "\"unit\": \"ms\"}}}",
          "result line layout");
}

} // namespace

int
main()
{
    testTailPercentile();
    testArrivalSchedule();
    testMetricNames();
    if (failures == 0)
        std::printf("perfbench helpers: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
