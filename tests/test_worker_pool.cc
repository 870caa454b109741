/**
 * @file
 * Unit tests for the host worker pool.
 */

#include <gtest/gtest.h>

#include "uvm/worker_pool.hh"

namespace idyll
{
namespace
{

TEST(WorkerPool, RunsTasksAfterTheirCost)
{
    EventQueue eq;
    WorkerPool pool(eq, 2);
    Tick done = 0;
    pool.submit(100, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 100u);
    EXPECT_TRUE(pool.idle());
}

TEST(WorkerPool, WidthLimitsConcurrency)
{
    EventQueue eq;
    WorkerPool pool(eq, 2);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i)
        pool.submit(100, [&] { done.push_back(eq.now()); });
    EXPECT_EQ(pool.queued(), 2u);
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], 100u);
    EXPECT_EQ(done[1], 100u);
    EXPECT_EQ(done[2], 200u);
    EXPECT_EQ(done[3], 200u);
    EXPECT_GT(pool.queueWait().sum(), 0.0);
}

TEST(WorkerPool, FifoOrder)
{
    EventQueue eq;
    WorkerPool pool(eq, 1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        pool.submit(10, [&, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, TasksCanSubmitMoreTasks)
{
    EventQueue eq;
    WorkerPool pool(eq, 1);
    Tick nested_done = 0;
    pool.submit(10, [&] {
        pool.submit(10, [&] { nested_done = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(nested_done, 20u);
}

} // namespace
} // namespace idyll
