// The run-mode knob table (src/obs/knobs.h): every env-backed switch
// resolves by one rule (config field, then its environment variable, then
// off) through one value parser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/config.h"
#include "obs/knobs.h"
#include "test_helpers.h"

namespace gpuddt {
namespace {

TEST(KnobTable, FieldBeatsEnvForEveryEntry) {
  for (const obs::KnobSpec& k : obs::kKnobs) {
    test::ScopedEnv env(k.env, "1");
    EXPECT_TRUE(obs::resolve(k.knob)) << k.env;
    EXPECT_FALSE(obs::resolve(k.knob, 0)) << k.env;
    env.set("0");
    EXPECT_FALSE(obs::resolve(k.knob)) << k.env;
    EXPECT_TRUE(obs::resolve(k.knob, 1)) << k.env;
    env.set("not-a-switch");  // a field never reads the variable
    EXPECT_TRUE(obs::resolve(k.knob, 1)) << k.env;
    env.unset();
    EXPECT_FALSE(obs::resolve(k.knob)) << k.env;
  }
}

TEST(KnobTable, AcceptsSwitchWordsInAnyCaseAndEmptyIsUnset) {
  test::ScopedEnv env("GPUDDT_CHECK");
  for (const char* on : {"1", "on", "ON", "True", "yes", "YES"}) {
    env.set(on);
    EXPECT_TRUE(obs::resolve(obs::Knob::kCheck)) << on;
  }
  for (const char* off : {"0", "off", "OFF", "False", "no", "No"}) {
    env.set(off);
    EXPECT_FALSE(obs::resolve(obs::Knob::kCheck)) << off;
  }
  env.set("");
  EXPECT_FALSE(obs::resolve(obs::Knob::kCheck));
}

TEST(KnobTable, TypoThrowsNamingVariableAndValue) {
  test::ScopedEnv env("GPUDDT_CHECK", "of");
  try {
    check::enabled_for(-1);
    FAIL() << "GPUDDT_CHECK=of was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("GPUDDT_CHECK"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'of'"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace gpuddt
