// RecentEvictions: the recently-evicted multiset HPE, MHPE and the phase
// classifier share. Its bound and lazy sizing in MHPE are pinned through
// MhpeFixture.WrongEvictionBufferIsBounded.
#include "common/recent_evictions.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(RecentEvictions, RefaultTakesOneInstanceOfARecentEviction) {
  RecentEvictions r(4);
  r.push(7);
  r.push(7);
  EXPECT_FALSE(r.take(8));
  EXPECT_TRUE(r.take(7));
  EXPECT_TRUE(r.take(7));
  EXPECT_FALSE(r.take(7));
}

// A taken entry stays in the FIFO; when it ages out it takes the instance a
// later eviction of the same chunk left.
TEST(RecentEvictions, AgedOutEntryTakesALaterInstanceOfItsChunk) {
  RecentEvictions r(2);
  r.push(5);
  EXPECT_TRUE(r.take(5));
  r.push(5);
  r.push(6);  // the first 5 ages out and takes the second one
  EXPECT_FALSE(r.take(5));
  EXPECT_TRUE(r.take(6));
}

// contains() reads membership without taking an instance; an entry that
// ages out takes its instance as usual.
TEST(RecentEvictions, ContainsTakesNothing) {
  RecentEvictions r(2);
  r.push(3);
  EXPECT_TRUE(r.contains(3));
  EXPECT_TRUE(r.contains(3));
  EXPECT_FALSE(r.contains(4));
  EXPECT_TRUE(r.take(3));
  EXPECT_FALSE(r.contains(3));
  r.push(4);
  r.push(5);
  r.push(6);  // 4 ages out
  EXPECT_FALSE(r.contains(4));
  EXPECT_TRUE(r.contains(5));
  EXPECT_TRUE(r.contains(6));
}

}  // namespace
}  // namespace uvmsim
