#include <gtest/gtest.h>

#include <unordered_set>

#include "src/net/addr.h"

namespace rocelab {
namespace {

TEST(MacAddr, Formatting) {
  MacAddr m{{0x02, 0x00, 0xab, 0xcd, 0x01, 0x09}};
  EXPECT_EQ(m.str(), "02:00:ab:cd:01:09");
}

TEST(MacAddr, U64RoundTrip) {
  const MacAddr m{{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}};
  EXPECT_EQ(MacAddr::from_u64(m.to_u64()), m);
  EXPECT_EQ(m.to_u64(), 0x123456789abcull);
}

TEST(MacAddr, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
  EXPECT_TRUE(MacAddr::pfc_multicast().is_multicast());
  EXPECT_FALSE(MacAddr::pfc_multicast().is_broadcast());
  EXPECT_FALSE(MacAddr::from_u64(0x020000000001).is_multicast());
}

TEST(MacAddr, PfcMulticastIsReservedAddress) {
  EXPECT_EQ(MacAddr::pfc_multicast().str(), "01:80:c2:00:00:01");
}

TEST(MacAddr, Hashable) {
  std::unordered_set<MacAddr> set;
  set.insert(MacAddr::from_u64(1));
  set.insert(MacAddr::from_u64(2));
  set.insert(MacAddr::from_u64(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ipv4Addr, OctetsAndFormatting) {
  const auto ip = Ipv4Addr::from_octets(10, 1, 2, 3);
  EXPECT_EQ(ip.value, 0x0a010203u);
  EXPECT_EQ(ip.str(), "10.1.2.3");
}

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr::from_octets(10, 0, 0, 1), Ipv4Addr::from_octets(10, 0, 0, 2));
}

// gtest names each case by the raw bytes of its param struct, so the struct
// has no implicit padding, whose bytes would change the test ids from run to
// run. The `pad` values mean nothing: they only reproduce the ids these cases
// were first recorded under. They play no part in the test.
struct PrefixCase {
  std::uint8_t a, b, c, d;
  int len;
  std::uint8_t ta, tb, tc, td;
  bool contains;
  std::uint8_t pad[3];
};

class PrefixContains : public ::testing::TestWithParam<PrefixCase> {};

TEST_P(PrefixContains, Matches) {
  const auto& p = GetParam();
  const Ipv4Prefix prefix{Ipv4Addr::from_octets(p.a, p.b, p.c, p.d), p.len};
  EXPECT_EQ(prefix.contains(Ipv4Addr::from_octets(p.ta, p.tb, p.tc, p.td)), p.contains);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrefixContains,
    ::testing::Values(PrefixCase{10, 0, 1, 0, 24, 10, 0, 1, 55, true, {0x00, 0xc0, 0xef}},
                      PrefixCase{10, 0, 1, 0, 24, 10, 0, 2, 55, false, {0x00, 0xe0, 0xef}},
                      PrefixCase{10, 0, 0, 0, 16, 10, 0, 200, 1, true, {}},
                      PrefixCase{10, 0, 0, 0, 16, 10, 1, 0, 1, false, {}},
                      PrefixCase{0, 0, 0, 0, 0, 192, 168, 1, 1, true,  // default route
                                 {0x00, 0xc0, 0xca}},
                      PrefixCase{10, 0, 1, 7, 32, 10, 0, 1, 7, true, {0x00, 0xc5, 0xca}},
                      PrefixCase{10, 0, 1, 7, 32, 10, 0, 1, 8, false, {}},
                      PrefixCase{128, 0, 0, 0, 1, 200, 0, 0, 1, true, {}},
                      PrefixCase{128, 0, 0, 0, 1, 100, 0, 0, 1, false, {0x56, 0x00, 0x00}}));

TEST(Ipv4Prefix, Formatting) {
  EXPECT_EQ((Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 1, 0), 24}).str(), "10.0.1.0/24");
}

}  // namespace
}  // namespace rocelab
