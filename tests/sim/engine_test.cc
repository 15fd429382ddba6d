/**
 * @file
 * Unit tests for the quantum engine.
 */

#include "sim/engine.hh"

#include <gtest/gtest.h>

#include <vector>

namespace iat::sim {
namespace {

PlatformConfig
smallConfig()
{
    PlatformConfig cfg;
    cfg.num_cores = 2;
    cfg.llc.num_slices = 1;
    cfg.llc.sets_per_slice = 64;
    cfg.quantum_seconds = 1e-3;
    return cfg;
}

/** Counts quanta and records boundaries. */
class CountingRunnable : public Runnable
{
  public:
    void
    runQuantum(double t_start, double dt) override
    {
        ++quanta;
        starts.push_back(t_start);
        last_dt = dt;
    }

    int quanta = 0;
    double last_dt = 0.0;
    std::vector<double> starts;
};

TEST(Engine, RunsExpectedQuanta)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    CountingRunnable r;
    engine.add(&r);
    engine.run(0.01);
    EXPECT_EQ(r.quanta, 10);
    EXPECT_DOUBLE_EQ(r.last_dt, 1e-3);
    EXPECT_NEAR(platform.now(), 0.01, 1e-9);
}

TEST(Engine, QuantumStartsAreMonotonic)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    CountingRunnable r;
    engine.add(&r);
    engine.run(0.005);
    for (std::size_t i = 1; i < r.starts.size(); ++i)
        EXPECT_GT(r.starts[i], r.starts[i - 1]);
}

TEST(Engine, PeriodicHookFiresAtInterval)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    int fired = 0;
    engine.addPeriodic(2e-3, [&](double) { ++fired; });
    engine.run(0.01);
    // Fires at 2,4,6,8 ms; the 10 ms edge belongs to the next run().
    EXPECT_EQ(fired, 4);
    engine.run(1e-3);
    EXPECT_EQ(fired, 5);
}

TEST(Engine, PeriodicHookWithPhase)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<double> times;
    engine.addPeriodic(4e-3, [&](double t) { times.push_back(t); },
                       0.0);
    engine.run(0.01);
    ASSERT_GE(times.size(), 3u);
    EXPECT_NEAR(times[0], 0.0, 1e-6);
    EXPECT_NEAR(times[1], 4e-3, 1e-6);
}

TEST(Engine, OneShotFiresOnce)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    int fired = 0;
    engine.at(3e-3, [&](double) { ++fired; });
    engine.run(0.01);
    EXPECT_EQ(fired, 1);
}

TEST(Engine, HooksFireInTimeOrder)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<int> order;
    engine.at(5e-3, [&](double) { order.push_back(2); });
    engine.at(1e-3, [&](double) { order.push_back(1); });
    engine.run(0.01);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(Engine, RunnablesExecuteInAdditionOrder)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<int> order;
    struct Tagger : Runnable
    {
        Tagger(std::vector<int> &log, int tag) : log(log), tag(tag) {}
        void
        runQuantum(double, double) override
        {
            log.push_back(tag);
        }
        std::vector<int> &log;
        int tag;
    };
    Tagger a(order, 1), b(order, 2);
    engine.add(&a);
    engine.add(&b);
    engine.run(1e-3);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(Engine, SecondRunContinuesClock)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    engine.run(0.01);
    engine.run(0.01);
    EXPECT_NEAR(platform.now(), 0.02, 1e-9);
}

TEST(Engine, HookObservesScheduledTimeNotQuantumStart)
{
    // Regression: run() used to pass the quantum start t0 to due
    // hooks, so a sampler with an off-quantum schedule recorded the
    // boundary it fired in rather than its own tick time.
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<double> times;
    engine.at(3.4e-3, [&](double t) { times.push_back(t); });
    engine.addPeriodic(2.5e-3, [&](double t) { times.push_back(t); });
    engine.run(0.01);
    ASSERT_EQ(times.size(), 4u);
    EXPECT_DOUBLE_EQ(times[0], 2.5e-3);
    EXPECT_DOUBLE_EQ(times[1], 3.4e-3);
    EXPECT_DOUBLE_EQ(times[2], 5.0e-3);
    EXPECT_DOUBLE_EQ(times[3], 7.5e-3);
}

TEST(Engine, OneShotAtRunEndFires)
{
    // Regression: the quantum loop only covers hooks due up to
    // end - dt/2, so a one-shot scheduled exactly at the end of the
    // run -- the natural way to sample final state -- never fired
    // unless the caller ran the engine again.
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<double> times;
    engine.at(0.01, [&](double t) { times.push_back(t); });
    engine.run(0.01);
    ASSERT_EQ(times.size(), 1u);
    EXPECT_DOUBLE_EQ(times[0], 0.01);
    // It is one-shot: a later run must not replay it.
    engine.run(0.01);
    EXPECT_EQ(times.size(), 1u);
}

TEST(Engine, OneShotJustInsideLastQuantumFires)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    int fired = 0;
    engine.at(9.8e-3, [&](double) { ++fired; });
    engine.run(0.01);
    EXPECT_EQ(fired, 1);
}

TEST(Engine, OneShotPastRunEndWaits)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    int fired = 0;
    engine.at(0.0105, [&](double) { ++fired; });
    engine.run(0.01);
    EXPECT_EQ(fired, 0);
    engine.run(0.01);
    EXPECT_EQ(fired, 1);
}

TEST(Engine, PeriodicAtRunEndBelongsToNextRun)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    std::vector<double> times;
    engine.addPeriodic(5e-3, [&](double t) { times.push_back(t); });
    engine.run(0.01);
    // 10 ms tick is the first event of the next window, not a bonus
    // firing of this one.
    ASSERT_EQ(times.size(), 1u);
    EXPECT_DOUBLE_EQ(times[0], 5e-3);
    engine.run(0.01);
    ASSERT_EQ(times.size(), 3u);
    EXPECT_DOUBLE_EQ(times[1], 10e-3);
    EXPECT_DOUBLE_EQ(times[2], 15e-3);
}

TEST(Engine, PeriodicHookDoesNotDrift)
{
    // Reschedule is absolute (first + n * interval), so an interval
    // with no exact binary representation must not accumulate error
    // across hundreds of fires.
    Platform platform(smallConfig());
    Engine engine(platform);
    const double interval = 1e-3 / 3.0;
    std::vector<double> times;
    engine.addPeriodic(interval, [&](double t) { times.push_back(t); });
    engine.run(0.2);
    ASSERT_GE(times.size(), 500u);
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_NEAR(times[i],
                    times[0] + static_cast<double>(i) * interval,
                    1e-12)
            << "fire " << i;
}

/** smallConfig() with 50 us quanta, so a 1 ms run spans 20. */
PlatformConfig
fineConfig()
{
    PlatformConfig cfg = smallConfig();
    cfg.quantum_seconds = 50e-6;
    return cfg;
}

TEST(Engine, StoppedRunLeavesLaterOneShotsForTheNextRun)
{
    // Regression: a stopped run() drained one-shot hooks up to the
    // requested end, so a hook at 0.9 ms fired in a run that had
    // stopped at 0.15 ms -- before the clock reached it.
    Platform platform(fineConfig());
    Engine engine(platform);
    std::vector<double> late;
    engine.at(0.1e-3, [&](double) { engine.requestStop(); });
    engine.at(0.9e-3, [&](double t) { late.push_back(t); });
    engine.run(1e-3);
    EXPECT_NEAR(platform.now(), 0.15e-3, 1e-12);
    EXPECT_TRUE(late.empty());
    engine.run(1e-3);
    ASSERT_EQ(late.size(), 1u);
    EXPECT_DOUBLE_EQ(late[0], 0.9e-3);
}

TEST(Engine, OpenEndedRunStopsFromAHookAndDrainsDueOneShots)
{
    Platform platform(fineConfig());
    Engine engine(platform);
    std::vector<double> fired;
    engine.at(0.3e-3, [&](double) { engine.requestStop(); });
    // Due after the stopping hook, within the quantum it ends: the
    // loop exits at 0.35 ms, and the drain fires this one.
    engine.at(0.35e-3, [&](double t) { fired.push_back(t); });
    engine.at(0.5e-3, [&](double t) { fired.push_back(t); });
    engine.runOpenEnded();
    EXPECT_NEAR(platform.now(), 0.35e-3, 1e-12);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_DOUBLE_EQ(fired[0], 0.35e-3);
}

TEST(EngineDeath, RejectsNullRunnable)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    EXPECT_DEATH(engine.add(nullptr), "null runnable");
}

TEST(EngineDeath, RejectsNonPositiveInterval)
{
    Platform platform(smallConfig());
    Engine engine(platform);
    EXPECT_DEATH(engine.addPeriodic(0.0, [](double) {}),
                 "interval");
}

} // namespace
} // namespace iat::sim
