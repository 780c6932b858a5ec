package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class CommonVariablesSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  test("iso timestamp is replaced") {
    assert(CommonVariables.replace("at 2024-03-01 10:12:33 done") == s"at $W done")
  }

  test("iso timestamp with millis and T separator is replaced") {
    assert(CommonVariables.replace("ts=2024-03-01T10:12:33.123Z end") == s"ts=$W end")
  }

  test("uuid is replaced") {
    assert(CommonVariables.replace("id 123e4567-e89b-12d3-a456-426614174000 ok") == s"id $W ok")
  }

  test("md5 hash is replaced") {
    assert(CommonVariables.replace("sum d41d8cd98f00b204e9800998ecf8427e ok") == s"sum $W ok")
  }

  test("ipv4 is replaced") {
    assert(CommonVariables.replace("from 192.168.0.1 port") == s"from $W port")
  }

  test("ipv4 with port is replaced as one unit") {
    assert(CommonVariables.replace("peer 10.0.0.2:8080 up") == s"peer $W up")
  }

  test("mac address is replaced") {
    assert(CommonVariables.replace("nic aa:bb:cc:dd:ee:ff up") == s"nic $W up")
  }

  test("0x hex literal is replaced") {
    assert(CommonVariables.replace("addr 0xdeadBEEF ok") == s"addr $W ok")
  }

  test("plain words and small numbers survive") {
    val s = "request 404 served in 12 ms"
    assert(CommonVariables.replace(s) == s)
  }

  test("short hex-looking words survive (not 32 chars, no 0x)") {
    val s = "color a3f2b1 set"
    assert(CommonVariables.replace(s) == s)
  }

  test("multiple occurrences all replaced") {
    assert(CommonVariables.replace("a 1.2.3.4 b 5.6.7.8 c") == s"a $W b $W c")
  }

  test("custom pattern list is honoured") {
    val out = CommonVariables.replace("user u123 in", Seq("user-id" -> raw"\bu\d+\b"))
    assert(out == s"user $W in")
  }

  test("empty pattern list leaves message untouched") {
    val s = "x 1.2.3.4 y"
    assert(CommonVariables.replace(s, Seq.empty) == s)
  }

  test("wildcard token survives tokenization as a stable token") {
    val toks = Tokenizer.default.tokenize(CommonVariables.replace("from 10.1.1.1 stop"))
    assert(toks.length == 3)
    // "<*>" loses its delimiter characters under the default tokenizer, but
    // deterministically so — every replaced variable becomes the same token
    assert(toks(1) == "*")
  }

  /** `replace` must equal applying `String.replaceAll` pattern by pattern. */
  private def reference(m: String, patterns: Seq[(String, String)]): String =
    patterns.foldLeft(m) { case (acc, (_, p)) => acc.replaceAll(p, W) }

  /** Strings of variables glued to each other and to other text, so the
    * `\b` anchors and the list order both matter. Hex runs straddle the
    * 32-char md5 length, alone and cut by a variable an earlier pattern
    * replaces; `0x` comes whole, split around a UUID, and at either end; the
    * non-ASCII digits are ones `\d` does not match. Combining marks (U+0301)
    * and non-ASCII letters next to a variable pin the running JVM's
    * Unicode-aware `\b`, which the anchored search leaves to the regex.
    */
  private val messages: Gen[String] = {
    // a quarter of the hex variables hold no decimal digit
    val hexAlphabet = Gen.frequency(3 -> Gen.hexChar, 1 -> Gen.oneOf("abcdefABCDEF"))
    def hexN(n: Int) = hexAlphabet.flatMap(Gen.listOfN(n, _)).map(_.mkString)
    val d2 = Gen.choose(0, 99).map(i => f"$i%02d")
    // octets and ports run past 3 and 5 digits now and then: 1.2.3.4567, 999.999.999.999:123456
    val ip = for {
      os <- Gen.listOfN(4, Gen.frequency(9 -> Gen.choose(0, 999), 1 -> Gen.choose(1000, 99999)))
      port <- Gen.option(Gen.frequency(9 -> Gen.choose(0, 99999), 1 -> Gen.choose(100000, 9999999)))
    } yield os.mkString(".") + port.fold("")(":" + _)
    val uuid = hexAlphabet.flatMap(h => Gen.sequence[List[String], String](
      List(8, 4, 4, 4, 12).map(Gen.listOfN(_, h).map(_.mkString))).map(_.mkString("-")))
    val mac = hexAlphabet.flatMap(h => Gen.listOfN(6, Gen.listOfN(2, h).map(_.mkString))).map(_.mkString(":"))
    val hexLit = Gen.choose(1, 12).flatMap(hexN).map("0x" + _)
    val ts = for {
      y <- Gen.choose(1990, 2099); mo <- d2; dd <- d2; sep <- Gen.oneOf(" ", "T")
      h <- d2; mi <- d2; sec <- d2; frac <- Gen.oneOf("", ".123", ",5")
      zone <- Gen.oneOf("", "Z", "+08:00", "-0500")
    } yield s"$y-$mo-$dd$sep$h:$mi:$sec$frac$zone"
    val hexRun = Gen.oneOf(31, 32, 33).flatMap(hexN)
    val cutRun = for {
      k <- Gen.choose(0, 33); cut <- Gen.oneOf(uuid, ip, mac, ts, hexLit); a <- hexN(k); b <- hexN(33 - k)
    } yield a + cut + b
    val zeroUuidX = uuid.map("0" + _ + "x")
    val text = Gen.oneOf("a", "x1", "u42", "id", "0", "42", "-", "_", ".", ":", "/", " ", "T", "Z", "+", "=", W,
      "ab", "cafe", "é", "\u0663", "\u0660", "\uFF11", "0x", "x", "0")
    // a combining mark on either side, or a word character glued to the left
    val glued = for {
      v <- Gen.oneOf(ip, uuid, hexRun, mac, hexLit, ts)
      l <- Gen.oneOf("\u0301", "a\u0301", " \u0301", "_", "g", "Z", "é")
      r <- Gen.oneOf("", "\u0301", "_")
    } yield l + v + r
    val piece = Gen.frequency(4 -> text, 1 -> ip, 1 -> uuid, 1 -> hexRun, 1 -> cutRun, 1 -> mac, 1 -> hexLit,
      1 -> ts, 1 -> zeroUuidX, 2 -> glued)
    Gen.choose(0, 12).flatMap(Gen.listOfN(_, piece)).map(_.mkString)
  }

  /** The same strings, most of them stripped of one character an anchor in
    * `replace` looks for, so each candidate search also runs where it finds
    * nothing.
    */
  private val gatedMessages: Gen[String] = {
    val strip = Gen.oneOf("", "0123456789", "-", ":", ".", "x", "0")
    for { m <- messages; drop <- strip } yield m.filterNot(c => drop.indexOf(c) >= 0)
  }

  private def checkAgainstReference(patterns: Seq[(String, String)], seed: Long): Unit = {
    val prop = Prop.forAll(gatedMessages) { m =>
      val got = CommonVariables.replace(m, patterns)
      (got == reference(m, patterns)) :| s"$m: $got vs ${reference(m, patterns)}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(seed))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("replace equals String.replaceAll pattern by pattern, default list (ScalaCheck)") {
    checkAgainstReference(CommonVariables.defaultPatterns, 11L)
  }

  test("replace equals String.replaceAll pattern by pattern, custom list (ScalaCheck)") {
    // later patterns see the wildcards earlier ones wrote
    val custom = Seq(
      "user-id" -> raw"\bu\d+\b",
      "number" -> raw"\d+",
      "wild-pair" -> raw"<\*>[.:]<\*>",
      "hex-word" -> raw"(?i)\b[a-f]{4,}\b")
    checkAgainstReference(custom, 12L)
  }

  test("replace equals String.replaceAll pattern by pattern, defaults reordered and renamed (ScalaCheck)") {
    val regex = CommonVariables.defaultPatterns.toMap
    // a user pattern first, then defaults under other names, with a
    // non-default pattern between them that can eat what a later default needs
    val custom = Seq(
      "dashed-word" -> raw"\b[a-z]+-[a-z0-9]+\b",
      "addr" -> regex("ipv4"),
      "id" -> regex("uuid"),
      "digit-pair" -> raw"\d\d",
      "stamp" -> regex("iso-timestamp"),
      "hash" -> regex("md5"),
      "lit" -> regex("hex-long"),
      "nic" -> regex("mac-address"))
    checkAgainstReference(custom, 13L)
    checkAgainstReference(CommonVariables.defaultPatterns.reverse, 14L)
  }

  test("a default regex is gated by its text, under any name; other regexes always run") {
    // the gate is the anchored candidate search; any other regex, a near-default one included, runs replaceAll
    val d = CommonVariables.compiled(CommonVariables.defaultPatterns)
    val ipv4 = CommonVariables.defaultPatterns.toMap.apply("ipv4")
    val renamed = CommonVariables.compiled(Seq("x" -> raw"\d+", "near-ipv4" -> ipv4.stripSuffix(raw"\b")) ++
      CommonVariables.defaultPatterns.map { case (n, p) => s"my-$n" -> p })
    assert(d.anchors.forall(_ >= 0) && d.anchors.distinct.length == d.anchors.length)
    assert(renamed.anchors.toSeq == Seq(-1, -1) ++ d.anchors.toSeq)
  }

  test("a renamed default regex takes the anchored path, a wrapped one replaceAll, with the same \\b") {
    val ipv4 = CommonVariables.defaultPatterns.toMap.apply("ipv4")
    val anchored = Seq("addr" -> ipv4)
    val plain = Seq("addr" -> s"(?:$ipv4)")
    assert(CommonVariables.compiled(anchored).anchors.head >= 0)
    assert(CommonVariables.compiled(plain).anchors.toSeq == Seq(-1))
    // a combining mark with no letter before it does not block the address; a mark after it, or a letter,
    // digit or `_` glued to its left, does; an octet or port that runs over is not cut short
    val cases = Seq(
      "at 1.2.3.4 ok" -> s"at $W ok",
      "\u03011.2.3.4" -> s"\u0301$W",
      "a\u03011.2.3.4" -> "a\u03011.2.3.4",
      "1.2.3.4\u0301" -> "1.2.3.4\u0301",
      "\u00e91.2.3.4 _1.2.3.4 \u06611.2.3.4" -> "\u00e91.2.3.4 _1.2.3.4 \u06611.2.3.4",
      "1.2.3.4567" -> "1.2.3.4567",
      "999.999.999.999:123456" -> s"$W:123456",
      "1234.5.6.7.8" -> s"1234.$W")
    cases.foreach { case (m, want) =>
      assert(reference(m, anchored) == want, m)
      assert(CommonVariables.replace(m, anchored) == want, m)
      assert(CommonVariables.replace(m, plain) == want, m)
    }
  }

  test("lists are compiled once each, and equal lists share the compiled patterns") {
    val a = Seq("n" -> raw"\d+")
    val b = Seq("w" -> raw"\w+")
    assert(CommonVariables.compiled(a) eq CommonVariables.compiled(a))
    assert(CommonVariables.compiled(a) eq CommonVariables.compiled(Seq("n" -> raw"\d+")))
    assert(CommonVariables.compiled(b) ne CommonVariables.compiled(a))
    assert(CommonVariables.compiled(a).patterns.map(_.pattern).toSeq == Seq(raw"\d+"))
    assert(CommonVariables.replace("a 12 b", a) == s"a $W b" && CommonVariables.replace("a 12 b", b) == s"$W $W $W")
  }

  test("a pattern that does not compile is an IllegalArgumentException naming it") {
    val e = intercept[IllegalArgumentException](CommonVariables.replace("x", Seq("broken" -> "(ab")))
    assert(e.getMessage.contains("broken") && e.getMessage.contains("(ab"))
  }
}
