package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.logdata.Datasets

/** Pins the exact bytes of trained models: a refactoring of the training core
  * must leave `ModelCodec.serialize(trainLocal(…))` unchanged. A change that
  * alters models on purpose updates these digests and says why in CHANGES.md.
  */
class ModelDigestSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def digest(dataset: String, c: ByteBrainConfig): String = {
    val model = ByteBrain.trainLocal(Datasets.loghub2(dataset).lines, c)
    MessageDigest.getInstance("SHA-256").digest(ModelCodec.serialize(model))
      .map(b => f"${b & 0xff}%02x").mkString
  }

  private val pins: Seq[(String, String, ByteBrainConfig, String)] = Seq(
    ("Mac", "default", cfg, "74579b9cc1701b0c34c974e38e768ba6a440534eb30a244c63be1de74781717a"),
    ("Mac", "dedup = false", cfg.copy(dedup = false), "bc98398f3680ed4ee54b22cf89f3f9db11e49bc4f1e353ab2e2a8e51b66667b8"),
    ("Mac", "positionImportance = false", cfg.copy(positionImportance = false), "ce9ea21f36b4a903993fe4798d44882e8028de784e5e333c5df941012c54bc69"),
    ("Mac", "variableInSaturation = false", cfg.copy(variableInSaturation = false), "97ee2f246ae9f9e44c4fcd087aa15c2c9513070f5a6591025eca4f115b47c0b6"),
    ("Mac", "confidenceFactor = false", cfg.copy(confidenceFactor = false), "a78dc48534f1b041474398b3d47f1fa12174ef5b7d4a47d9a52623ca4be88d48"),
    ("Mac", "kmeansPlusPlus = false", cfg.copy(kmeansPlusPlus = false), "7f2e4229b3d19de0d58be4b1d401e4da35879bbc4396f027da5b10dcd532ae16"),
    ("Mac", "earlyStop = false", cfg.copy(earlyStop = false), "67794f61e5dc45660a88152a3e054ceb27dc7236c6b8d72a07827d294b81dae0"),
    ("Mac", "prefixTokens = 1", cfg.copy(prefixTokens = 1), "a7bf0a9f86361cea1c8ff164d7353601ab96e25902c9b9866f610214dd64cd07"),
    // Mac has 4,000 lines, so this cap makes sampling apply
    ("Mac", "sampleMaxLogs = 2000", cfg.copy(sampleMaxLogs = 2000), "1f50379489e15c9929946953dbb91e67915249890993ea3bfb2a12b82ff38b84"),
    ("Linux", "default", cfg, "6aa17bc7560471327f63a5aa7f04d1701691e0abf828716bb157ae6b30518fab"),
    ("OpenSSH", "default", cfg, "5733c0c1cd7d50157969be0e4c845917480b35b9d57f097730255d2f3652d3fd"),
  )

  pins.foreach { case (dataset, label, c, expected) =>
    test(s"trained model bytes are pinned: $dataset, $label") {
      assert(digest(dataset, c) == expected)
    }
  }
}
