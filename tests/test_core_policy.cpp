#include "core/policy.hpp"

#include <gtest/gtest.h>

namespace psched {
namespace {

TEST(PolicyConfig, DisplayNamesMatchPaper) {
  EXPECT_EQ(paper_policy(PaperPolicy::Cplant24NomaxAll).display_name(), "cplant24.nomax.all");
  EXPECT_EQ(paper_policy(PaperPolicy::Cplant72NomaxAll).display_name(), "cplant72.nomax.all");
  EXPECT_EQ(paper_policy(PaperPolicy::Cplant24NomaxFair).display_name(), "cplant24.nomax.fair");
  EXPECT_EQ(paper_policy(PaperPolicy::Cplant24MaxAll).display_name(), "cplant24.72max.all");
  EXPECT_EQ(paper_policy(PaperPolicy::Cplant72MaxFair).display_name(), "cplant72.72max.fair");
  EXPECT_EQ(paper_policy(PaperPolicy::ConsNomax).display_name(), "cons.nomax");
  EXPECT_EQ(paper_policy(PaperPolicy::ConsMax).display_name(), "cons.72max");
  EXPECT_EQ(paper_policy(PaperPolicy::ConsdynNomax).display_name(), "consdyn.nomax");
  EXPECT_EQ(paper_policy(PaperPolicy::ConsdynMax).display_name(), "consdyn.72max");
}

TEST(PolicyConfig, DerivedNamesForLibraryPolicies) {
  PolicyConfig c;
  c.kind = PolicyKind::Fcfs;
  EXPECT_EQ(c.display_name(), "fcfs.fairshare");
  c.priority = PriorityKind::Fcfs;
  EXPECT_EQ(c.display_name(), "fcfs");
  c.kind = PolicyKind::Easy;
  EXPECT_EQ(c.display_name(), "easy");
  c.kind = PolicyKind::Cplant;
  c.starvation_delay = kNoTime;
  EXPECT_EQ(c.display_name(), "noguarantee.nomax");
  c.kind = PolicyKind::Conservative;
  c.max_runtime = hours(48);
  EXPECT_EQ(c.display_name(), "cons.fcfs.48max");
}

TEST(PolicyConfig, ExplicitNameWins) {
  PolicyConfig c;
  c.name = "my-policy";
  EXPECT_EQ(c.display_name(), "my-policy");
}

// display_name omits heavy_user_factor, so two configs differing only there
// share a display name; the canonical key (the campaign dedupe and journal
// key) must still tell them apart, or they would share one result.
TEST(PolicyConfig, CanonicalKeyDistinguishesConfigsWithEqualDisplayNames) {
  const PolicyConfig strict = paper_policy(PaperPolicy::Cplant24NomaxFair);
  PolicyConfig lax = strict;
  lax.heavy_user_factor = 1.0;  // bars far more users, same display name
  ASSERT_EQ(strict.display_name(), lax.display_name());
  EXPECT_NE(strict.canonical_key(), lax.canonical_key());
  EXPECT_EQ(strict.canonical_key(), paper_policy(PaperPolicy::Cplant24NomaxFair).canonical_key());
}

// An explicit `name` also participates in identity: same fields + different
// name means a different report (policy_name differs), and a name that
// mimics another config's derived display name must not take its key.
TEST(PolicyConfig, CanonicalKeyDistinguishesExplicitNames) {
  const PolicyConfig derived;  // cplant24.nomax.all
  PolicyConfig disguised;
  disguised.starvation_delay = hours(72);
  disguised.name = derived.display_name();
  ASSERT_EQ(derived.display_name(), disguised.display_name());
  EXPECT_NE(derived.canonical_key(), disguised.canonical_key());

  PolicyConfig renamed = derived;
  renamed.name = "my-policy";
  EXPECT_NE(derived.canonical_key(), renamed.canonical_key());
}

TEST(PolicyFactory, BuildsEveryKind) {
  for (const PolicyKind kind :
       {PolicyKind::Fcfs, PolicyKind::Cplant, PolicyKind::Easy, PolicyKind::Conservative,
        PolicyKind::ConservativeDynamic}) {
    PolicyConfig c;
    c.kind = kind;
    const auto scheduler = make_scheduler(c);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_FALSE(scheduler->name().empty());
  }
}

TEST(PolicyMatrix, PaperGroups) {
  const auto minor = minor_change_policies();
  ASSERT_EQ(minor.size(), 5u);
  EXPECT_EQ(minor.front().display_name(), "cplant24.nomax.all");

  const auto all = all_paper_policies();
  ASSERT_EQ(all.size(), 9u);
  // The minor group is a prefix of the full group.
  for (std::size_t i = 0; i < minor.size(); ++i)
    EXPECT_EQ(all[i].display_name(), minor[i].display_name());
  // All names unique.
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i].display_name(), all[j].display_name());
}

TEST(PolicyMatrix, PaperPolicyParameters) {
  const PolicyConfig triple = paper_policy(PaperPolicy::Cplant72MaxFair);
  EXPECT_EQ(triple.starvation_delay, hours(72));
  EXPECT_TRUE(triple.bar_heavy_users);
  EXPECT_EQ(triple.max_runtime, hours(72));
  EXPECT_EQ(triple.kind, PolicyKind::Cplant);
  EXPECT_EQ(triple.priority, PriorityKind::Fairshare);

  const PolicyConfig consdyn = paper_policy(PaperPolicy::ConsdynNomax);
  EXPECT_EQ(consdyn.kind, PolicyKind::ConservativeDynamic);
  EXPECT_EQ(consdyn.max_runtime, kNoTime);
}

}  // namespace
}  // namespace psched
